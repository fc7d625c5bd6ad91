//! In-flight read bookkeeping shared by every asynchronous file backend.
//!
//! [`InflightTables`] tracks every submitted read from submission until
//! its completion, by ticket (for completion gating). Every submission is
//! a charged demand miss, so there is nothing to deduplicate or adopt:
//! the cache's single-flight lives in its own frame table.
//! [`crate::CompletionQueue`] owns an instance behind its lock; the
//! backends never touch raw tables.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use crate::lru::BufKey;

/// One submitted read: the buffer key it serves — page `key.page` of the
/// file of store `key.store`, which is also its lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadJob {
    pub ticket: u64,
    pub key: BufKey,
    /// When the submission was queued — queue wait (submit → claim) and
    /// completion lag (submit → complete) are measured from here.
    pub submitted: Instant,
}

/// The shared submission/in-flight/completion tables (module docs).
///
/// Lifecycle of one submission: [`InflightTables::submit`] issues a ticket
/// and queues a [`ReadJob`] (`Queued`) → a worker [`InflightTables::claim`]s
/// it (`Flying`) → [`InflightTables::complete`] marks the ticket done.
///
/// **Claim order** (the one rule): FIFO by ticket; any worker, any lane.
/// Ticket order is the order [`InflightTables::done_floor`] advances in,
/// so the read a parked cursor waits on is always the next one served.
pub(crate) struct InflightTables {
    /// Every queued job of every lane, in ticket order.
    queued: VecDeque<ReadJob>,
    /// Queued jobs per lane (store).
    depth: Vec<usize>,
    /// Submitted but not yet completed (queued + flying).
    pub outstanding: usize,
    /// Completion frontier: every ticket below this has completed.
    done_below: u64,
    /// Completed tickets at or above the frontier (completions arrive out
    /// of submission order; contiguous runs are folded into the frontier).
    done: BTreeSet<u64>,
    /// Next ticket to issue. Tickets start at 1; 0 is [`crate::Ticket::NONE`].
    next_ticket: u64,
    /// Set once on drop; workers exit at the next wakeup.
    pub shutdown: bool,
    /// Workers asleep on the queue's submission condvar, and waiters asleep
    /// on its completion condvar. Kept here because this struct is what
    /// the queue's mutex guards: a sleeper counts itself in before the
    /// wait releases the mutex, so whoever changes the tables next sees it
    /// and notifies — and skips the syscall when the count is zero.
    pub idle_workers: usize,
    pub parked_waiters: usize,
}

impl InflightTables {
    pub fn new(lanes: usize) -> Self {
        InflightTables {
            queued: VecDeque::new(),
            depth: vec![0; lanes],
            outstanding: 0,
            done_below: 1,
            done: BTreeSet::new(),
            next_ticket: 1,
            shutdown: false,
            idle_workers: 0,
            parked_waiters: 0,
        }
    }

    /// Issues the next ticket for a read of `key` and queues the job that
    /// carries it, behind every older one.
    pub fn submit(&mut self, key: BufKey) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.depth[usize::from(key.store)] += 1;
        self.outstanding += 1;
        self.queued.push_back(ReadJob {
            ticket,
            key,
            submitted: Instant::now(),
        });
        ticket
    }

    /// Submissions currently queued on `lane` (not yet claimed by a
    /// worker).
    #[inline]
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.depth[lane]
    }

    /// A worker claims the oldest queued job over all lanes, if any.
    pub fn claim(&mut self) -> Option<ReadJob> {
        let job = self.queued.pop_front()?;
        self.depth[usize::from(job.key.store)] -= 1;
        Some(job)
    }

    /// A worker finished reading `job` — its ticket completes (whether
    /// the read succeeded or not; a failure is surfaced by the queue, not
    /// left to dead-lock a waiter).
    pub fn complete(&mut self, job: &ReadJob) {
        self.outstanding -= 1;
        self.mark_done(job.ticket);
    }

    /// Whether `ticket` has completed.
    #[inline]
    pub fn is_done(&self, ticket: u64) -> bool {
        ticket < self.done_below || self.done.contains(&ticket)
    }

    /// All tickets strictly below this have completed.
    #[inline]
    pub fn done_floor(&self) -> u64 {
        self.done_below
    }

    fn mark_done(&mut self, ticket: u64) {
        self.done.insert(ticket);
        while self.done.remove(&self.done_below) {
            self.done_below += 1;
        }
    }

    /// Drops every queued (unclaimed) job, marking their tickets done so
    /// no waiter can hang on a read that will never happen — the reset
    /// path. Flying jobs are untouched; the caller waits them out.
    pub fn abandon_queued(&mut self) {
        for job in std::mem::take(&mut self.queued) {
            self.depth[usize::from(job.key.store)] -= 1;
            self.outstanding -= 1;
            self.mark_done(job.ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    fn key(store: u8, p: u32) -> BufKey {
        BufKey::new(store, PageId(p))
    }

    #[test]
    fn tickets_complete_out_of_order_and_fold_into_the_frontier() {
        let mut t = InflightTables::new(1);
        let a = t.submit(key(0, 1));
        let b = t.submit(key(0, 2));
        let c = t.submit(key(0, 3));
        let (ja, jb, jc) = (t.claim().unwrap(), t.claim().unwrap(), t.claim().unwrap());
        t.complete(&jc);
        assert!(t.is_done(c) && !t.is_done(a) && !t.is_done(b));
        t.complete(&ja);
        assert!(t.is_done(a) && !t.is_done(b));
        t.complete(&jb);
        assert!(t.is_done(b));
        assert_eq!(t.done_floor(), c + 1, "frontier folds the whole run");
        assert_eq!(t.outstanding, 0);
    }

    /// Tickets in the order a single worker would claim them.
    fn claim_order(t: &mut InflightTables) -> Vec<u64> {
        std::iter::from_fn(|| t.claim().map(|j| j.ticket)).collect()
    }

    #[test]
    fn demands_are_claimed_in_ticket_order() {
        let mut t = InflightTables::new(2);
        // Lanes do not matter: one FIFO over all of them.
        let order: Vec<u64> = [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5)]
            .map(|(store, p)| t.submit(key(store, p)))
            .into();
        assert_eq!((t.lane_depth(0), t.lane_depth(1)), (3, 2));
        assert_eq!(claim_order(&mut t), order, "oldest demand first");
        assert_eq!((t.lane_depth(0), t.lane_depth(1)), (0, 0));
    }

    #[test]
    fn abandon_queued_completes_dropped_tickets() {
        let mut t = InflightTables::new(2);
        let a = t.submit(key(0, 1));
        let b = t.submit(key(1, 2));
        t.abandon_queued();
        assert!(t.is_done(a) && t.is_done(b));
        assert_eq!(t.outstanding, 0);
        assert_eq!((t.lane_depth(0), t.lane_depth(1)), (0, 0));
    }
}
