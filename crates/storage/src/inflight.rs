//! In-flight read bookkeeping shared by every asynchronous file backend.
//!
//! [`InflightTables`] tracks every submitted read from hint or demand
//! until its completion is consumed, keyed both by [`BufKey`] (for
//! deduplication and demand adoption) and by ticket (for completion
//! gating). [`crate::CompletionQueue`] owns an instance behind its lock;
//! the backends never touch raw tables.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use crate::lru::BufKey;
use crate::page::PageId;

/// One submitted read: the global buffer key it serves, the lane (physical
/// file) it reads, and the slot to read there (identical to `key.page` for
/// whole-tree files, a shard-local slot for sharded ones).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadJob {
    pub ticket: u64,
    pub key: BufKey,
    pub lane: usize,
    pub local: PageId,
    /// When the submission was queued — queue wait (submit → claim) and
    /// completion lag (submit → complete) are measured from here.
    pub submitted: Instant,
}

/// Where a submission currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// In the submission queue, no worker has claimed it.
    Queued,
    /// A worker is reading it right now.
    Flying,
    /// Read complete, completion not yet consumed by a demand miss.
    Staged,
}

/// Claim class of a queued job. The variant order is the claim order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// A fresh demand submission, or a hint a demand miss has adopted.
    Demand,
    /// Read-ahead nobody waits on yet.
    Hint,
}

/// A submission as seen from its [`BufKey`]: which ticket identifies it
/// and how far along it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyEntry {
    pub ticket: u64,
    pub phase: Phase,
}

/// The shared submission/in-flight/completion tables (module docs).
///
/// Lifecycle of one submission: [`InflightTables::submit`] issues a ticket
/// and queues a [`ReadJob`] → a worker [`InflightTables::claim`]s it
/// (phase `Flying`) → [`InflightTables::complete`] marks the ticket done
/// (phase `Staged`). A demand miss [`InflightTables::consume`]s the key at
/// any phase — the physical read still happens exactly once; only who
/// waits changes.
///
/// **Claim order** (the one rule): demand-class jobs — fresh demand
/// submissions plus hints a demand has adopted — by ticket, then
/// un-adopted hints FIFO; any worker, any lane. Ticket order is the order
/// [`InflightTables::done_floor`] advances in, so the read a parked cursor
/// waits on is always the next one served.
#[derive(Default)]
pub(crate) struct InflightTables {
    /// Every queued job of every lane; the key order is the claim order.
    queued: BTreeMap<(Class, u64), ReadJob>,
    /// Queued jobs per lane, both classes.
    depth: Vec<usize>,
    /// Every submission not yet consumed by a demand miss.
    by_key: HashMap<BufKey, KeyEntry>,
    /// Submissions in phase `Staged` (completed, unconsumed).
    staged: usize,
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
            queued: BTreeMap::new(),
            depth: vec![0; lanes],
            by_key: HashMap::new(),
            staged: 0,
            outstanding: 0,
            done_below: 1,
            done: BTreeSet::new(),
            next_ticket: 1,
            shutdown: false,
            idle_workers: 0,
            parked_waiters: 0,
        }
    }

    /// Number of submissions whose completion has not been consumed —
    /// the pipeline depth the hint window bounds.
    #[inline]
    pub fn pipeline_len(&self) -> usize {
        self.by_key.len()
    }

    /// Completed-but-unconsumed submissions (the "staged pages" of the
    /// prefetch backend).
    #[inline]
    pub fn staged_len(&self) -> usize {
        self.staged
    }

    /// Whether `key` already has an unconsumed submission.
    #[inline]
    pub fn is_submitted(&self, key: BufKey) -> bool {
        self.by_key.contains_key(&key)
    }

    /// Issues the next ticket and queues the job that carries it.
    fn enqueue(&mut self, class: Class, lane: usize, key: BufKey, local: PageId) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.depth[lane] += 1;
        self.outstanding += 1;
        let job = ReadJob {
            ticket,
            key,
            lane,
            local,
            submitted: Instant::now(),
        };
        self.queued.insert((class, ticket), job);
        ticket
    }

    /// Issues a ticket for a *hint* read of `key` on `lane` and queues the
    /// job behind every earlier hint. The caller must have checked
    /// [`InflightTables::is_submitted`].
    pub fn submit(&mut self, lane: usize, key: BufKey, local: PageId) -> u64 {
        debug_assert!(!self.by_key.contains_key(&key));
        let ticket = self.enqueue(Class::Hint, lane, key, local);
        self.by_key.insert(
            key,
            KeyEntry {
                ticket,
                phase: Phase::Queued,
            },
        );
        ticket
    }

    /// Issues a ticket for a *demand* read of `key` on `lane` and queues
    /// the job without registering it for adoption: the miss is charged
    /// by its caller, so a later re-miss of the same key (after an
    /// eviction) must perform — and pay for — its own read. Adoption is
    /// only honest for hint reads, which are never charged; a stale
    /// demand entry adopted twice would make one physical read serve two
    /// charged accesses.
    pub fn submit_demand(&mut self, lane: usize, key: BufKey, local: PageId) -> u64 {
        // The newest ticket: behind every older demand-class job, ahead
        // of every un-adopted hint (claim order, type docs).
        self.enqueue(Class::Demand, lane, key, local)
    }

    /// Submissions currently queued on `lane` (not yet claimed by a
    /// worker).
    #[inline]
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.depth[lane]
    }

    /// A worker claims the best queued job over all lanes, if any: the
    /// oldest demand-class job, else the oldest hint.
    pub fn claim(&mut self) -> Option<ReadJob> {
        let (_, job) = self.queued.pop_first()?;
        self.depth[job.lane] -= 1;
        if let Some(e) = self.by_key.get_mut(&job.key) {
            // Entry may be gone (demand consumed the submission early) or
            // may belong to a *newer* submission of the same key; only
            // this job's own entry moves to `Flying`.
            if e.ticket == job.ticket {
                e.phase = Phase::Flying;
            }
        }
        Some(job)
    }

    /// A worker finished reading `job` — its ticket completes (whether
    /// the read succeeded or not; a failure is surfaced by the queue, not
    /// left to dead-lock a waiter).
    pub fn complete(&mut self, job: &ReadJob) {
        self.outstanding -= 1;
        self.mark_done(job.ticket);
        if let Some(e) = self.by_key.get_mut(&job.key) {
            if e.ticket == job.ticket {
                e.phase = Phase::Staged;
                self.staged += 1;
            }
        }
    }

    /// A demand miss for `key`: adopts the existing submission if there is
    /// one (returning its ticket and the phase it was found in), so the
    /// in-progress read *is* the miss's read — never a duplicate.
    pub fn consume(&mut self, key: BufKey) -> Option<KeyEntry> {
        let entry = self.by_key.remove(&key)?;
        match entry.phase {
            Phase::Staged => self.staged -= 1,
            Phase::Queued => {
                // The adopted hint becomes demand-class: it takes its
                // place among the demands by its own (older) ticket.
                if let Some(job) = self.queued.remove(&(Class::Hint, entry.ticket)) {
                    self.queued.insert((Class::Demand, entry.ticket), job);
                }
            }
            Phase::Flying => {}
        }
        Some(entry)
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
        for job in std::mem::take(&mut self.queued).into_values() {
            self.depth[job.lane] -= 1;
            self.outstanding -= 1;
            self.mark_done(job.ticket);
            if let Some(e) = self.by_key.get(&job.key) {
                if e.ticket == job.ticket {
                    self.by_key.remove(&job.key);
                }
            }
        }
    }

    /// Forgets every consumed-or-staged key (after the flying set has
    /// drained): the queue is empty and cold.
    pub fn clear_consumed(&mut self) {
        debug_assert_eq!(self.outstanding, 0);
        self.by_key.clear();
        self.staged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u32) -> BufKey {
        BufKey::new(0, PageId(p))
    }

    #[test]
    fn tickets_complete_out_of_order_and_fold_into_the_frontier() {
        let mut t = InflightTables::new(1);
        let a = t.submit(0, key(1), PageId(1));
        let b = t.submit(0, key(2), PageId(2));
        let c = t.submit(0, key(3), PageId(3));
        let (ja, jb, jc) = (t.claim().unwrap(), t.claim().unwrap(), t.claim().unwrap());
        t.complete(&jc);
        assert!(t.is_done(c) && !t.is_done(a) && !t.is_done(b));
        t.complete(&ja);
        assert!(t.is_done(a) && !t.is_done(b));
        t.complete(&jb);
        assert!(t.is_done(b));
        assert_eq!(t.done_floor(), c + 1, "frontier folds the whole run");
        assert_eq!(t.outstanding, 0);
        assert_eq!(t.staged_len(), 3);
    }

    /// Tickets in the order a single worker would claim them.
    fn claim_order(t: &mut InflightTables) -> Vec<u64> {
        std::iter::from_fn(|| t.claim().map(|j| j.ticket)).collect()
    }

    #[test]
    fn demands_are_claimed_in_ticket_order() {
        let mut t = InflightTables::new(1);
        let order: Vec<u64> = (1..=3)
            .map(|p| t.submit_demand(0, key(p), PageId(p)))
            .collect();
        assert_eq!(claim_order(&mut t), order, "oldest demand first");
    }

    #[test]
    fn a_demand_outranks_queued_hints_but_not_an_older_demand() {
        let mut t = InflightTables::new(1);
        let d1 = t.submit_demand(0, key(1), PageId(1));
        let h1 = t.submit(0, key(2), PageId(2));
        let h2 = t.submit(0, key(3), PageId(3));
        let d2 = t.submit_demand(0, key(4), PageId(4));
        assert_eq!(claim_order(&mut t), [d1, d2, h1, h2]);
    }

    #[test]
    fn an_adopted_hint_is_ordered_among_demands_by_its_ticket() {
        let mut t = InflightTables::new(2);
        let d1 = t.submit_demand(0, key(1), PageId(1));
        let h1 = t.submit(1, key(2), PageId(2));
        let h2 = t.submit(0, key(3), PageId(3));
        let d2 = t.submit_demand(1, key(4), PageId(4));
        let d3 = t.submit_demand(0, key(5), PageId(5));
        // Adopting h2 slots it between d1 and d2 — by ticket, not at the
        // front and not at the back; h1 stays a hint. Lanes do not matter.
        let e = t.consume(key(3)).expect("submitted");
        assert_eq!((e.ticket, e.phase), (h2, Phase::Queued));
        assert!(t.consume(key(3)).is_none(), "consumed exactly once");
        assert_eq!((t.lane_depth(0), t.lane_depth(1)), (3, 2));
        assert_eq!(claim_order(&mut t), [d1, h2, d2, d3, h1]);
        assert_eq!((t.lane_depth(0), t.lane_depth(1)), (0, 0));
    }

    #[test]
    fn abandon_queued_completes_dropped_tickets() {
        let mut t = InflightTables::new(2);
        let a = t.submit(0, key(1), PageId(1));
        let b = t.submit(1, key(2), PageId(2));
        t.abandon_queued();
        assert!(t.is_done(a) && t.is_done(b));
        assert_eq!(t.outstanding, 0);
        assert_eq!(t.pipeline_len(), 0);
    }
}
