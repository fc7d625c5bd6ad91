//! In-flight read bookkeeping shared by every asynchronous file backend.
//!
//! [`InflightTables`] tracks every submitted read from hint or demand
//! until its completion is consumed, keyed both by [`BufKey`] (for
//! deduplication and demand adoption) and by ticket (for completion
//! gating). [`crate::CompletionQueue`] owns an instance behind its lock;
//! the backends never touch raw tables.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

use crate::lru::BufKey;
use crate::page::PageId;

/// One submitted read: the global buffer key it serves, and the slot to
/// read in its lane's physical file (identical to `key.page` for
/// whole-tree files, a shard-local slot for sharded ones).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadJob {
    pub ticket: u64,
    pub key: BufKey,
    pub local: PageId,
    /// When the submission entered its lane — completion lag (submit →
    /// complete, queue wait included) is measured from here.
    pub submitted: Instant,
}

/// Where a submission currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// In a lane's submission queue, no worker has claimed it.
    Queued,
    /// A worker is reading it right now.
    Flying,
    /// Read complete, completion not yet consumed by a demand miss.
    Staged,
}

/// A submission as seen from its [`BufKey`]: which ticket identifies it,
/// which lane it was submitted on, and how far along it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyEntry {
    pub ticket: u64,
    pub lane: usize,
    pub phase: Phase,
}

/// The shared submission/in-flight/completion tables (module docs).
///
/// Lifecycle of one submission: [`InflightTables::submit`] issues a ticket
/// and queues a [`ReadJob`] on its lane → a worker
/// [`InflightTables::claim`]s it (phase `Flying`) →
/// [`InflightTables::complete`] marks the ticket done (phase `Staged`).
/// A demand miss [`InflightTables::consume`]s the key at any phase — the
/// physical read still happens exactly once; only who waits changes.
#[derive(Default)]
pub(crate) struct InflightTables {
    /// Per-lane submission queues, oldest first.
    pub lanes: Vec<VecDeque<ReadJob>>,
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
}

impl InflightTables {
    pub fn new(lanes: usize) -> Self {
        InflightTables {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            by_key: HashMap::new(),
            staged: 0,
            outstanding: 0,
            done_below: 1,
            done: BTreeSet::new(),
            next_ticket: 1,
            shutdown: false,
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

    /// Issues a ticket for a new read of `key` on `lane` and queues the
    /// job. The caller must have checked [`InflightTables::is_submitted`].
    pub fn submit(&mut self, lane: usize, key: BufKey, local: PageId) -> u64 {
        debug_assert!(!self.by_key.contains_key(&key));
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.by_key.insert(
            key,
            KeyEntry {
                ticket,
                lane,
                phase: Phase::Queued,
            },
        );
        self.lanes[lane].push_back(ReadJob {
            ticket,
            key,
            local,
            submitted: Instant::now(),
        });
        self.outstanding += 1;
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
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        // Demand outranks queued read-ahead on its lane, same as the
        // promotion a demand adoption performs in `consume`.
        self.lanes[lane].push_front(ReadJob {
            ticket,
            key,
            local,
            submitted: Instant::now(),
        });
        self.outstanding += 1;
        ticket
    }

    /// Submissions currently queued on `lane` (not yet claimed by a
    /// worker).
    #[inline]
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// A worker claims the oldest queued job of `lane`, if any.
    pub fn claim(&mut self, lane: usize) -> Option<ReadJob> {
        let job = self.lanes[lane].pop_front()?;
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
                // Jump the queue: demand outranks read-ahead on its lane.
                let lane = &mut self.lanes[entry.lane];
                if let Some(pos) = lane.iter().position(|j| j.ticket == entry.ticket) {
                    let job = lane.remove(pos).expect("position just found");
                    lane.push_front(job);
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
        let jobs: Vec<ReadJob> = self.lanes.iter_mut().flat_map(|l| l.drain(..)).collect();
        for job in jobs {
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
        let (ja, jb, jc) = (
            t.claim(0).unwrap(),
            t.claim(0).unwrap(),
            t.claim(0).unwrap(),
        );
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

    #[test]
    fn demand_consumption_promotes_queued_jobs() {
        let mut t = InflightTables::new(1);
        t.submit(0, key(1), PageId(1));
        let b = t.submit(0, key(2), PageId(2));
        let e = t.consume(key(2)).expect("submitted");
        assert_eq!((e.ticket, e.phase), (b, Phase::Queued));
        // The consumed job jumped to the front of its lane.
        assert_eq!(t.claim(0).unwrap().ticket, b);
        assert!(t.consume(key(2)).is_none(), "consumed exactly once");
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
