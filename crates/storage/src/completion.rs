//! The submission/completion queue.
//!
//! This is the io_uring-shaped core of the overlap story: demand misses
//! become *submissions* — [`CompletionQueue::submit`] → [`Ticket`] —
//! serviced by one pool of worker threads over real
//! [`PageFile`] handles, and the executor checks tickets
//! ([`CompletionQueue::is_complete`]) or parks on them
//! ([`CompletionQueue::await_ticket`]) instead of blocking inside
//! `access()`. A *lane* is one store's page file: a job for
//! [`BufKey`] `key` reads page `key.page` of lane `key.store`, where the
//! read is also counted — the lane names where a job reads, not who
//! serves it. The queue is the engine of two of the file-access stack's
//! three read strategies: [`crate::stack::Queued`] owns a private one,
//! and [`crate::cache::Cached`] submits through the one its
//! [`crate::SharedPageCache`] owns.
//!
//! ## Service order
//!
//! One rule (`InflightTables`): **FIFO by ticket; any worker, any lane.**
//! A job's lifecycle is `Queued → Flying → done`, and every job is one
//! charged demand miss. The queue is *age-ordered* — a parked cursor
//! waits on the oldest unsettled ticket ([`CompletionQueue::await_settled`]
//! is a prefix predicate), so that is the read served next — and
//! *work-conserving*: no worker sleeps while any lane has a queued job.
//!
//! ## Inline reads
//!
//! Inline reads bypass the FIFO. A shared cache's handle may take its
//! ticket already claimed and read the page on its own thread, through
//! the lane's file and the workers' own post-claim code: the same latency,
//! lane read count, completion and wake-ups, with zero queue wait. The
//! ticket is outstanding until then, so waiters and
//! [`CompletionQueue::drain`] see it like any other. An update handle
//! always reads this way. A join handle does while the queue's recent
//! reads were fast (`CompletionQueue::reads_are_fast`): every read,
//! inline or by a worker, records its claim→complete time, and while
//! most of the last eight took under 30 µs (`FAST_READ`) a hand-off would
//! cost more than the read it hands off — the worker's wake-up, and the
//! submitter's park, outweigh a page the OS already holds. That
//! classifier (`ReadSpeed`) is the crate's one rule for a slow read: an
//! open's page scan ([`crate::scan`]) decides its depth by it too.
//!
//! ## Depth
//!
//! A worker is a thread blocked in one positional read, so a worker *is*
//! one unit of device queue depth: the pool holds [`QUEUE_DEPTH`] of them
//! per queue, however many lanes the queue has, and that is the number of
//! reads the device sees at once. Submitters cap what they keep in flight
//! at the same constant (the join cursor's run-ahead does), so a submitted
//! read finds a worker instead of waiting in the table behind a smaller
//! pool. Read `queue_wait` against `service` in [`CompletionLag`] to check
//! it: wait ≫ service means the pool, not the device, bounds the reads.
//! Depth is for slow reads: over a fast device the workers mostly sleep,
//! because the demanding threads read inline (see above); the pool stays
//! because reading every miss of a 100 µs modelled device inline made a
//! `join_cold` join about six times slower.
//!
//! Both condvars are notified only when someone sleeps on them: the state
//! mutex guards a sleeper count for each beside the tables, so a submitter
//! that finds every worker busy, and a completion nobody is parked on, pay
//! no futex syscall. A sleeper registers before it releases the mutex and
//! a notifier reads the count under that mutex, so no wake-up is lost.
//!
//! ## Accounting invariants
//!
//! The owning backends charge [`IoStats`](crate::IoStats) *synchronously*
//! in `access()`, through the [`crate::BufferPool`] each of them owns —
//! identical, in order and in value, to the oracle because it is the
//! oracle's code. Only the *physical read* is asynchronous. Every
//! submission is exactly one charged miss, so once
//! [`CompletionQueue::drain`] returns, the lane read counters sum to
//! exactly the reads the charges promised.
//!
//! A failed worker read completes its ticket (so no waiter hangs) and
//! poisons the queue; the next wait/drain panics, preserving the blocking
//! strategy's "storage broke mid-join" contract.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::access::Ticket;
use crate::file::PageFile;
use crate::inflight::{InflightTables, ReadJob};
use crate::lru::BufKey;

/// Test hook: per-page extra latency applied by the worker *before* the
/// physical read — lets the adversarial-order suites force completions
/// into any order (reversed, starved, random) without touching the files.
pub type DelayFn = Arc<dyn Fn(BufKey) -> Option<Duration> + Send + Sync>;

/// Reads one [`CompletionQueue`] serves at a time — its worker-pool size
/// — and therefore the most reads a submitter gains from keeping in
/// flight on it (module docs, "Depth"). Sized at commit `5b12823` on the
/// repo benchmark's `join_cold` (100 µs modelled reads, two cores, three
/// rounds each): depth 4 read 81–89 ms per join, 8 50–53 ms, 16 44–46 ms,
/// 32 45–47 ms at twice the threads. The join has grown cheaper since
/// (26–33 ms at `1464f7b`); the sweep has not been repeated.
pub const QUEUE_DEPTH: usize = 16;

/// A read whose service took less than this is fast, and `rsj-storage`
/// has no other bound on read speed. It serves two users, through
/// `ReadSpeed`: a join handle reads a miss on its own thread while most
/// recent reads were fast (module docs, "Inline reads"), and an open's
/// page scan ([`crate::scan`]) adds readers up to [`QUEUE_DEPTH`] once its
/// first reads were not. It splits the two populations both see on the
/// repo benchmark's 2-core box: a page the OS already holds is read in
/// about 3 µs (a hand-off to a worker alone waits about 9 µs), and a
/// modelled 100 µs device read takes about 165 µs. The bound sits ten
/// times above the first and five below the second, so a fast read that
/// is preempted once, or a debug build's slower one, still counts as
/// fast.
const FAST_READ: Duration = Duration::from_micros(30);

/// The speeds of the last eight reads: bit `i` is set when the `i`-th
/// most recent one was faster than [`FAST_READ`], and the verdict is
/// "fast" while more than half are. A queue records every read it
/// serves, inline or by a worker, and starts all slow, so a fresh queue
/// hands reads to its workers until fast ones have been seen; a page
/// scan records its first eight and starts all fast, so it keeps one
/// reader per core until four of them were slow.
pub(crate) struct ReadSpeed(AtomicU8);

impl ReadSpeed {
    /// A window of eight reads that all count as `fast`, or all as slow.
    pub(crate) fn new(fast: bool) -> Self {
        ReadSpeed(AtomicU8::new(if fast { u8::MAX } else { 0 }))
    }

    pub(crate) fn record(&self, service: Duration) {
        let fast = u8::from(service < FAST_READ);
        // Always `Ok`: the update retries until it lands.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                Some(h << 1 | fast)
            });
    }

    /// Whether most of the last eight reads were fast.
    pub(crate) fn fast(&self) -> bool {
        self.0.load(Ordering::Relaxed).count_ones() > u8::BITS / 2
    }
}

/// Configuration of the queued read strategy's private queue
/// ([`crate::stack::Queued`]; a shared cache's queue takes
/// [`crate::CacheConfig`]). The pool size is not here: every queue
/// serves [`QUEUE_DEPTH`] reads.
#[derive(Clone, Default)]
pub struct CompletionConfig {
    /// Optional per-page completion delay (tests only).
    pub delay: Option<DelayFn>,
}

impl fmt::Debug for CompletionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionConfig")
            .field("delay", &self.delay.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// Shared state between submitters, waiters and the worker pool.
struct CqShared {
    state: Mutex<InflightTables>,
    /// One read-only handle per lane, read positionally by every worker.
    files: Vec<PageFile>,
    /// Workers sleep here for submissions, counted in
    /// `InflightTables::idle_workers`.
    wakeup: Condvar,
    /// Waiters ([`CompletionQueue::await_ticket`], drain, reset) sleep
    /// here for completions, counted in `InflightTables::parked_waiters`.
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
    /// Completions accumulated into the latency spans below.
    lag_samples: AtomicU64,
    /// Worst single submit→complete latency seen, in nanoseconds.
    lag_max_nanos: AtomicU64,
    /// The two spans that partition the lag: submit→claim (waiting for a
    /// worker) and claim→complete (the read itself). Their totals sum to
    /// the lag's.
    queue_wait: SpanNanos,
    service: SpanNanos,
    /// The last reads' service times, summarised for
    /// [`CompletionQueue::reads_are_fast`].
    speed: ReadSpeed,
    /// Sticky read-failure flag; surfaced as a panic at the next wait.
    failed: AtomicBool,
    delay: Option<DelayFn>,
}

impl CqShared {
    /// After a submission: publishes the new `outstanding` and wakes one
    /// worker if any sleeps. With every worker busy nobody needs waking —
    /// each re-checks the table, under this mutex, before it sleeps.
    fn wake_a_worker(&self, st: MutexGuard<'_, InflightTables>) {
        self.outstanding.store(st.outstanding, Ordering::Relaxed);
        let asleep = st.idle_workers > 0;
        drop(st);
        if asleep {
            self.wakeup.notify_one();
        }
    }

    /// Sleeps until the next completion that finds a waiter registered.
    fn park<'a>(&self, mut st: MutexGuard<'a, InflightTables>) -> MutexGuard<'a, InflightTables> {
        st.parked_waiters += 1;
        st = self.complete.wait(st).unwrap();
        st.parked_waiters -= 1;
        st
    }
}

fn saturating_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Sum and worst case of one latency span over all completions, in
/// nanoseconds (statistics only: `Relaxed`).
#[derive(Default)]
struct SpanNanos {
    total: AtomicU64,
    max: AtomicU64,
}

impl SpanNanos {
    fn record(&self, span: Duration) {
        let nanos = saturating_nanos(span);
        self.total.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// `(total, max)`.
    fn load(&self) -> (u64, u64) {
        (
            self.total.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One submission/completion queue: its lanes, tickets and worker pool.
/// The workers shut down when the queue drops.
pub struct CompletionQueue {
    shared: Arc<CqShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for CompletionQueue {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wakeup.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
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
    /// One queue over files its owner opened and validated: lane `i`
    /// (store `i`) reads `files[i]`, one handle shared by the workers, and a
    /// pool of [`QUEUE_DEPTH`] threads serves all lanes — positional
    /// reads, so any number of workers read one file at once.
    pub(crate) fn over(files: Vec<PageFile>, delay: Option<DelayFn>) -> Self {
        Self::with_pool(files, QUEUE_DEPTH, delay)
    }

    /// [`CompletionQueue::over`] with the pool size given: the service-order
    /// tests need a pool of one to observe the claim order.
    fn with_pool(files: Vec<PageFile>, workers: usize, delay: Option<DelayFn>) -> Self {
        let lanes = files.len();
        let shared = Arc::new(CqShared {
            state: Mutex::new(InflightTables::new(lanes)),
            files,
            wakeup: Condvar::new(),
            complete: Condvar::new(),
            done_floor: AtomicU64::new(1),
            outstanding: AtomicUsize::new(0),
            reads: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            polls: AtomicU64::new(0),
            lag_samples: AtomicU64::new(0),
            lag_max_nanos: AtomicU64::new(0),
            queue_wait: SpanNanos::default(),
            service: SpanNanos::default(),
            speed: ReadSpeed::new(false),
            failed: AtomicBool::new(false),
            delay,
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        CompletionQueue { shared, workers }
    }

    /// Number of submission lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.shared.reads.len()
    }

    /// Size of the worker pool: the reads this queue serves at once.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// A charged miss for `key`: submits one read, queued behind every
    /// older submission, and returns the ticket the caller's frame parks
    /// on. A re-miss of the same key (after an eviction) submits — and
    /// pays for — a read of its own.
    pub fn submit(&self, key: BufKey) -> Ticket {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        let ticket = st.submit(key);
        sh.wake_a_worker(st);
        Ticket(ticket)
    }

    /// A charged miss for `key` that the caller reads itself, at once, in
    /// [`CompletionQueue::serve_claimed`]: the ticket is issued already
    /// claimed — outstanding, so waiters and [`CompletionQueue::drain`]
    /// see it, but never queued and no worker woken.
    pub(crate) fn claim(&self, key: BufKey) -> ReadJob {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        let job = st.issue(key);
        sh.outstanding.store(st.outstanding, Ordering::Relaxed);
        job
    }

    /// Reads a [`CompletionQueue::claim`]ed job on the calling thread
    /// through its lane's file, into `buf`, exactly as a worker would
    /// (the delay hook, the injected latency, the lane read count, the
    /// lag spans with zero queue wait, completion), then — as
    /// [`CompletionQueue::await_ticket`] would on that ticket — panics if
    /// any read failed.
    pub(crate) fn serve_claimed(&self, job: &ReadJob, buf: &mut Vec<u8>) {
        serve(&self.shared, job, job.submitted, buf);
        self.check_failed();
    }

    /// Whether most of the last eight reads this queue served, inline or
    /// by a worker, took less than the cost of handing one to a worker:
    /// the device is fast enough that a demanding thread should read its
    /// own miss ([`CompletionQueue::claim`]) rather than
    /// [`CompletionQueue::submit`] it. False on a fresh queue; measured
    /// service time is the only input, and [`CompletionQueue::reset`]
    /// keeps it (a reset zeroes counters, it does not change the device).
    #[inline]
    pub(crate) fn reads_are_fast(&self) -> bool {
        self.shared.speed.fast()
    }

    /// Polls a ticket. Lock-free when the completion frontier has already
    /// passed it; every call is counted (see
    /// [`CompletionQueue::poll_count`]).
    pub fn is_complete(&self, ticket: Ticket) -> bool {
        self.below_frontier(ticket) || self.shared.state.lock().unwrap().is_done(ticket.0)
    }

    /// Blocks until `ticket` completes. Panics if any read failed — the
    /// "storage broke mid-join" contract of the blocking backends.
    pub fn await_ticket(&self, ticket: Ticket) {
        if !ticket.is_none() {
            self.wait_until(|st| st.is_done(ticket.0));
        }
    }

    /// Whether every submission up to **and including** `ticket` has
    /// completed — the emission-gate predicate
    /// ([`crate::NodeAccess::is_settled`]).
    /// Completions arrive out of submission order, so this is strictly
    /// stronger than [`CompletionQueue::is_complete`]. It reads only the
    /// frontier mirror, never the lock: the mirror is stored under the
    /// lock at every completion and every reset, so it is the frontier.
    /// Counted like any other poll.
    pub fn is_settled(&self, ticket: Ticket) -> bool {
        self.below_frontier(ticket)
    }

    /// Blocks until [`CompletionQueue::is_settled`] holds for `ticket`.
    /// Panics if any read failed (the mid-join contract).
    pub fn await_settled(&self, ticket: Ticket) {
        if !ticket.is_none() {
            self.wait_until(|st| ticket.0 < st.done_floor());
        }
    }

    /// Blocks until every submission has completed — the honesty point at
    /// which lane reads equal the charges that promised them.
    pub fn drain(&self) {
        self.wait_until(|st| st.outstanding == 0);
    }

    /// Drops from `pending` every frame whose read has completed, handing
    /// its key to `done`. Tickets below the frontier mirror go without the
    /// lock; the rest are checked under one hold of it, taken only if one
    /// is left. Uncounted: the cache's settle, not a cursor's poll.
    pub(crate) fn retain_pending(
        &self,
        pending: &mut HashMap<BufKey, Ticket>,
        mut done: impl FnMut(BufKey),
    ) {
        let sh = &self.shared;
        let floor = sh.done_floor.load(Ordering::Acquire);
        let mut st = None;
        pending.retain(|&key, ticket| {
            let complete = ticket.0 < floor
                || st
                    .get_or_insert_with(|| sh.state.lock().unwrap())
                    .is_done(ticket.0);
            if complete {
                done(key);
            }
            !complete
        });
    }

    /// Whether `ticket` is none or below the frontier mirror; a real
    /// ticket counts as one poll.
    #[inline]
    fn below_frontier(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = &self.shared;
        sh.polls.fetch_add(1, Ordering::Relaxed);
        ticket.0 < sh.done_floor.load(Ordering::Acquire)
    }

    /// Parks until `done` holds of the tables, then panics if any read
    /// failed.
    fn wait_until(&self, done: impl Fn(&InflightTables) -> bool) {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        while !done(&st) {
            st = sh.park(st);
        }
        drop(st);
        self.check_failed();
    }

    /// Submissions not yet completed (queued + being read).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.shared.outstanding.load(Ordering::Relaxed)
    }

    /// Successful reads performed on `lane` so far.
    #[inline]
    pub fn lane_reads(&self, lane: usize) -> u64 {
        self.shared.reads[lane].load(Ordering::Relaxed)
    }

    /// Successful reads across all lanes.
    pub fn total_reads(&self) -> u64 {
        self.shared
            .reads
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum()
    }

    /// Total `is_complete` calls so far (busy-spin metering).
    #[inline]
    pub fn poll_count(&self) -> u64 {
        self.shared.polls.load(Ordering::Relaxed)
    }

    /// Submissions currently queued on `lane` — waiting for a worker,
    /// not yet being read (one term of [`CompletionQueue::in_flight`]).
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.shared.state.lock().unwrap().lane_depth(lane)
    }

    /// Submit→complete latency accounting across all completions so
    /// far: queue wait plus read service time, per completed job, and
    /// each of the two spans on its own.
    pub fn completion_lag(&self) -> CompletionLag {
        let sh = &self.shared;
        let (queue_wait_total_nanos, queue_wait_max_nanos) = sh.queue_wait.load();
        let (service_total_nanos, service_max_nanos) = sh.service.load();
        CompletionLag {
            total_nanos: queue_wait_total_nanos + service_total_nanos,
            samples: sh.lag_samples.load(Ordering::Relaxed),
            max_nanos: sh.lag_max_nanos.load(Ordering::Relaxed),
            queue_wait_total_nanos,
            queue_wait_max_nanos,
            service_total_nanos,
            service_max_nanos,
        }
    }

    /// Abandons queued submissions, waits out in-progress reads and
    /// zeroes the read/poll counters — a cold queue for the next
    /// measurement. Ticket numbering continues (completed stays
    /// completed).
    pub fn reset(&self) {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        st.abandon_queued();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        while st.outstanding > 0 {
            st = sh.park(st);
        }
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        sh.outstanding.store(0, Ordering::Relaxed);
        drop(st);
        self.check_failed();
        for r in &sh.reads {
            r.store(0, Ordering::Relaxed);
        }
        sh.polls.store(0, Ordering::Relaxed);
        sh.lag_samples.store(0, Ordering::Relaxed);
        sh.lag_max_nanos.store(0, Ordering::Relaxed);
        sh.queue_wait.reset();
        sh.service.reset();
    }

    fn check_failed(&self) {
        if self.shared.failed.load(Ordering::Relaxed) {
            panic!("completion-queue page read failed mid-join");
        }
    }
}

/// Submit→complete latency totals of a [`CompletionQueue`] (queue wait
/// plus read service time, accumulated per completed job), and the two
/// spans apart: a large lag over a fast device is queue wait — a service
/// *order* or worker-count problem, not a device one. An inline read
/// (module docs, "Service order") is a sample with zero queue wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionLag {
    /// Summed lag over all completions, nanoseconds.
    pub total_nanos: u64,
    /// Completions accumulated into every `*total_nanos`.
    pub samples: u64,
    /// Worst single completion lag, nanoseconds.
    pub max_nanos: u64,
    /// Summed submit→claim wait (queued, no worker yet), nanoseconds.
    pub queue_wait_total_nanos: u64,
    /// Worst single submit→claim wait, nanoseconds.
    pub queue_wait_max_nanos: u64,
    /// Summed claim→complete time (delay hook, injected latency, the
    /// read), nanoseconds.
    pub service_total_nanos: u64,
    /// Worst single claim→complete time, nanoseconds.
    pub service_max_nanos: u64,
}

impl CompletionLag {
    /// Mean submit→complete latency in nanoseconds (0 with no samples).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.samples).unwrap_or(0)
    }

    /// Mean submit→claim wait in nanoseconds (0 with no samples).
    pub fn queue_wait_mean_nanos(&self) -> u64 {
        self.queue_wait_total_nanos
            .checked_div(self.samples)
            .unwrap_or(0)
    }

    /// Mean claim→complete time in nanoseconds (0 with no samples).
    pub fn service_mean_nanos(&self) -> u64 {
        self.service_total_nanos
            .checked_div(self.samples)
            .unwrap_or(0)
    }
}

/// One pool worker: claim the oldest queued job of any lane,
/// [`serve`] it, repeat until shutdown.
fn worker_loop(shared: Arc<CqShared>) {
    let mut buf = Vec::new();
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.claim() {
                    break job;
                }
                st.idle_workers += 1;
                st = shared.wakeup.wait(st).unwrap();
                st.idle_workers -= 1;
            }
        };
        serve(&shared, &job, Instant::now(), &mut buf);
    }
}

/// Everything after a job's claim, for a pool worker and for an inline
/// read ([`CompletionQueue::serve_claimed`]) alike: read the page
/// positionally through its lane's shared handle (the test delay hook and
/// the injected latency apply here), count the read, record the lag
/// spans, complete the ticket and wake whoever is parked on it.
fn serve(shared: &CqShared, job: &ReadJob, claimed: Instant, buf: &mut Vec<u8>) {
    if let Some(delay) = &shared.delay {
        if let Some(d) = delay(job.key) {
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
    // A demand read can land on a page an updater's flush appended
    // through its own rw handle after this lane opened: the lane
    // handle's header, cached at open, still carries the old page count
    // (a page allocated since is dirty and never read until that flush
    // writes it). Retry once against the physical file length before
    // declaring the read failed.
    let (lane, page) = (usize::from(job.key.store), job.key.page);
    let file = &shared.files[lane];
    let read = file
        .read_page_at(page, buf)
        .or_else(|_| file.read_slot_fresh(page, buf));
    match read {
        Ok(()) => {
            shared.reads[lane].fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            shared.failed.store(true, Ordering::Relaxed);
        }
    }
    let done = Instant::now();
    let service = done.duration_since(claimed);
    shared
        .queue_wait
        .record(claimed.duration_since(job.submitted));
    shared.service.record(service);
    shared.speed.record(service);
    shared.lag_samples.fetch_add(1, Ordering::Relaxed);
    shared.lag_max_nanos.fetch_max(
        saturating_nanos(done.duration_since(job.submitted)),
        Ordering::Relaxed,
    );
    let mut st = shared.state.lock().unwrap();
    st.complete(job);
    shared.done_floor.store(st.done_floor(), Ordering::Release);
    shared.outstanding.store(st.outstanding, Ordering::Relaxed);
    let awaited = st.parked_waiters > 0;
    drop(st);
    if awaited {
        shared.complete.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::EvictionPolicy;
    use crate::page::PageId;
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
    fn await_ticket_blocks_until_a_delayed_completion() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(20)))),
        };
        let mut acc = completion_access(&dir, 4, cfg);
        assert!(acc.access(0, PageId(2), 1));
        let t = acc.last_miss_ticket();
        acc.await_ticket(t);
        assert!(acc.is_complete(t));
        assert_eq!(acc.queue().total_reads(), 1);
    }

    #[test]
    fn reset_restores_a_cold_backend() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            // Hold completions so the reset meets queued and flying reads.
            delay: Some(Arc::new(|_| Some(Duration::from_millis(5)))),
        };
        let mut acc = completion_access(&dir, 4, cfg);
        for p in 0..4 {
            assert!(acc.access(0, PageId(p), 1));
        }
        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(acc.queue().in_flight(), 0);
        assert_eq!(acc.queue().total_reads(), 0);
        assert_eq!(acc.queue().poll_count(), 0);
        assert!(acc.access(0, PageId(1), 1), "cold again after reset");
        acc.drain_completions();
        assert_eq!(acc.queue().total_reads(), 1);
    }

    #[test]
    fn drop_with_pending_submissions_does_not_hang() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(5)))),
        };
        let mut acc = completion_access(&dir, 8, cfg);
        for p in 0..8 {
            assert!(acc.access(0, PageId(p), 1));
        }
        drop(acc); // joins workers without draining the queue
    }

    /// A queue of `workers` workers straight over `lanes` demo files of
    /// `QUEUE_DEPTH` pages each.
    fn demo_queue(dir: &TempDir, lanes: usize, workers: usize, delay: DelayFn) -> CompletionQueue {
        let files = (0..lanes)
            .map(|l| {
                let path = demo_file(dir, &format!("l{l}.rsj"), QUEUE_DEPTH as u32);
                PageFile::open(path.path()).unwrap()
            })
            .collect();
        CompletionQueue::with_pool(files, workers, Some(delay))
    }

    fn demand(q: &CompletionQueue, lane: u8, page: u32) -> Ticket {
        q.submit(BufKey::new(lane, PageId(page)))
    }

    /// A delay hook that holds every job until `parties` of them are in
    /// service at once, and the flag it clears if 2 s pass without that.
    fn rendezvous(parties: usize) -> (DelayFn, Arc<AtomicBool>) {
        let meet = Arc::new((Mutex::new(0usize), Condvar::new()));
        let met = Arc::new(AtomicBool::new(true));
        let ok = Arc::clone(&met);
        let delay: DelayFn = Arc::new(move |_| {
            let (arrived, cv) = &*meet;
            let mut n = arrived.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let (_n, res) = cv
                .wait_timeout_while(n, Duration::from_secs(2), |n| *n < parties)
                .unwrap();
            if res.timed_out() {
                ok.store(false, Ordering::Relaxed);
            }
            None
        });
        (delay, met)
    }

    /// Runs `body` on its own thread and fails the test if it has not
    /// returned within `limit` — a lost wake-up is a hang, not a panic.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{self, RecvTimeoutError};
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Err(RecvTimeoutError::Timeout) => {
                panic!("still blocked after {limit:?}: a wake-up was lost")
            }
            // Returned, or panicked and dropped the sender: join reports which.
            Ok(()) | Err(RecvTimeoutError::Disconnected) => runner.join().unwrap(),
        }
    }

    #[test]
    fn oldest_demand_is_never_starved() {
        use std::sync::mpsc;
        let dir = TempDir::new("cq").unwrap();
        // The hook records the order jobs are served in, and holds the
        // first one flying until the test has queued the other eight.
        let served = Arc::new(Mutex::new(Vec::new()));
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let log = Arc::clone(&served);
        let delay: DelayFn = Arc::new(move |key: BufKey| {
            log.lock().unwrap().push(key.page);
            if key.page == PageId(0) {
                let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(5));
            }
            Some(Duration::from_millis(2))
        });
        let q = demo_queue(&dir, 1, 1, delay);
        let submit = |p: u32| demand(&q, 0, p);
        let mut tickets = vec![submit(0)];
        while served.lock().unwrap().is_empty() {
            std::thread::yield_now(); // until page 0 is flying
        }
        tickets.extend((1..=8).map(submit));
        release.send(()).unwrap();
        q.await_settled(*tickets.last().unwrap());
        assert!(tickets.windows(2).all(|w| w[0] < w[1]));
        let ticket_order: Vec<PageId> = (0..=8).map(PageId).collect();
        assert_eq!(*served.lock().unwrap(), ticket_order, "oldest demand first");
        // Page 8 was queued before page 1 was claimed: it waited out the
        // 2 ms services of pages 1..=7, and that shows as queue wait.
        assert!(q.completion_lag().queue_wait_max_nanos >= 7 * 2_000_000);
    }

    #[test]
    fn idle_workers_serve_a_busy_lane() {
        let dir = TempDir::new("cq").unwrap();
        // Both of lane 0's jobs must be flying at once, which one
        // lane-bound worker can never do.
        let (delay, met) = rendezvous(2);
        let q = demo_queue(&dir, 2, 2, delay);
        for p in [3, 4] {
            demand(&q, 0, p);
        }
        q.drain();
        assert!(
            met.load(Ordering::Relaxed),
            "lane 0's two jobs were never in service together"
        );
        assert_eq!((q.lane_reads(0), q.lane_reads(1)), (2, 0));
    }

    #[test]
    fn one_lane_gets_the_whole_queue_depth() {
        let dir = TempDir::new("cq").unwrap();
        // What a cursor may keep in flight, submitted on the only lane of
        // a one-lane queue, is all in service at once: depth is a property
        // of the queue, not of how many files it reads.
        let (delay, met) = rendezvous(QUEUE_DEPTH);
        let f = demo_file(&dir, "t.rsj", QUEUE_DEPTH as u32);
        let q = CompletionQueue::over(vec![PageFile::open(f.path()).unwrap()], Some(delay));
        assert_eq!(q.workers(), QUEUE_DEPTH);
        for p in 0..QUEUE_DEPTH as u32 {
            demand(&q, 0, p);
        }
        q.drain();
        assert!(
            met.load(Ordering::Relaxed),
            "fewer than QUEUE_DEPTH reads were ever in service together"
        );
        assert_eq!(q.lane_reads(0), QUEUE_DEPTH as u64);
    }

    /// The sleeper-count elision loses no wake-up: submitters that park on
    /// every read keep sending the pool to sleep and back, for a pool of
    /// one (every submission races the one worker going idle) and for the
    /// full pool.
    #[test]
    fn no_wakeup_is_lost_between_submitters_and_sleeping_workers() {
        const SUBMITTERS: u32 = 4;
        const ROUNDS: u32 = 400;
        for workers in [1, QUEUE_DEPTH] {
            within(Duration::from_secs(30), move || {
                let dir = TempDir::new("cq").unwrap();
                let q = demo_queue(&dir, 1, workers, Arc::new(|_| None));
                std::thread::scope(|scope| {
                    for s in 0..SUBMITTERS {
                        let q = &q;
                        scope.spawn(move || {
                            for _ in 0..ROUNDS {
                                // Alternate the two waits; each returns only
                                // once a worker woke up for this read.
                                let t = demand(q, 0, s);
                                if s % 2 == 0 {
                                    q.await_ticket(t);
                                } else {
                                    q.await_settled(t);
                                }
                            }
                        });
                    }
                });
                q.drain();
                assert_eq!(q.total_reads(), u64::from(SUBMITTERS * ROUNDS));
            });
        }
    }

    #[test]
    fn the_last_completion_releases_a_parked_await_settled() {
        use std::sync::mpsc;
        // Every job blocks in the hook until the test lets it go, so the
        // waiter below is parked before any completion can happen.
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let delay: DelayFn = Arc::new(move |_| {
            let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(5));
            None
        });
        within(Duration::from_secs(10), move || {
            let dir = TempDir::new("cq").unwrap();
            let q = demo_queue(&dir, 1, QUEUE_DEPTH, delay);
            let tickets: Vec<Ticket> = (0..4).map(|p| demand(&q, 0, p)).collect();
            let last = tickets[3];
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| q.await_settled(last));
                while q.shared.state.lock().unwrap().parked_waiters == 0 {
                    std::thread::yield_now();
                }
                for _ in 0..4 {
                    release.send(()).unwrap();
                }
                waiter.join().unwrap();
            });
            assert!(q.is_settled(last));
        });
    }

    #[test]
    fn completion_lag_splits_queue_wait_from_service() {
        let dir = TempDir::new("cq").unwrap();
        let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(3)));
        let q = demo_queue(&dir, 1, 1, delay);
        for p in 0..4 {
            demand(&q, 0, p);
        }
        q.drain();
        let lag = q.completion_lag();
        assert_eq!(lag.samples, 4);
        assert!(lag.service_mean_nanos() >= 3_000_000, "the hook's 3 ms");
        assert!(lag.max_nanos >= lag.queue_wait_max_nanos.max(lag.service_max_nanos));
        q.reset();
        let zero = q.completion_lag();
        // A zero total means both span totals are zero.
        assert_eq!((zero.samples, zero.total_nanos, zero.max_nanos), (0, 0, 0));
        assert_eq!((zero.queue_wait_max_nanos, zero.service_max_nanos), (0, 0));
    }

    /// The inline-or-queue decision over a scripted run of service times:
    /// whether the reads were fast after each one.
    fn decisions(services: &[Duration]) -> Vec<bool> {
        let speed = ReadSpeed::new(false);
        services
            .iter()
            .map(|&s| {
                speed.record(s);
                speed.fast()
            })
            .collect()
    }

    #[test]
    fn stalled_reads_among_fast_ones_flip_a_bounded_number_of_decisions() {
        let (fast, stalled) = (Duration::from_micros(3), Duration::from_millis(5));
        assert!(!ReadSpeed::new(false).fast(), "a fresh queue starts slow");
        // Five fast reads of eight switch a fresh queue to fast.
        let warm = decisions(&[fast; 5]);
        assert_eq!(warm, [false, false, false, false, true]);
        for burst in 0..=12usize {
            let mut run = vec![fast; 8];
            run.extend(vec![stalled; burst]);
            run.extend([fast; 16]);
            let flipped = decisions(&run)[8..].iter().filter(|&&f| !f).count();
            // Fewer than half a window of stalls flips nothing; a longer
            // burst holds the queue for itself and half a window more.
            let bound = if burst < 4 { 0 } else { burst + 4 };
            assert!(
                flipped <= bound,
                "{burst} stalls flipped {flipped} decisions (bound {bound})"
            );
        }
        // A device that turns slow is on the queue within half a window.
        let mut run = vec![fast; 8];
        run.extend([Duration::from_micros(160); 4]);
        assert!(!decisions(&run)[11]);
    }

    #[test]
    fn out_of_order_completions_fold_into_the_poll_fast_path() {
        let dir = TempDir::new("cq").unwrap();
        // First submitted page completes last.
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|key: BufKey| {
                (key.page == PageId(0)).then(|| Duration::from_millis(30))
            })),
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
