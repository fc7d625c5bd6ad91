//! The benchmark's side of the storage/core boundary: a do-nothing
//! accountant for the ladder's bare-cursor rungs, and a wrapper that
//! times every call a join makes into its `NodeAccess`.
//!
//! Spans are recorded here, around the calls into each layer, and kept
//! in memory until the process exits (choosing-metrics §4).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rsj_storage::{IoStats, NodeAccess, PageId, PageRef, Ticket};

/// An accountant that charges nothing: the cursor's own cost with no
/// buffer layer under it.
#[derive(Debug, Default)]
pub struct NullAccess;

impl NodeAccess for NullAccess {
    fn access(&mut self, _store: u8, _page: PageId, _depth: usize) -> bool {
        false
    }
    fn pin(&mut self, _store: u8, _page: PageId) {}
    fn unpin(&mut self, _store: u8, _page: PageId) {}
    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }
}

/// One recorded interval. `parent` 0 means a root; spans of one join
/// share `query`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// All spans of a traced run, in memory until [`SpanLog::write_jsonl`].
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    queries: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            queries: 0,
        }
    }
}

impl SpanLog {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` on this log's time base (0 if `t` precedes the log).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The identifier the next query's spans share.
    pub fn begin_query(&mut self) -> u64 {
        self.queries += 1;
        self.queries
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn push(
        &mut self,
        parent: u64,
        query: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Files one traced join: the root `core.join` span, one aggregate
    /// child per layer (its `end − start` is the layer's summed busy
    /// time, anchored at the join's start), and the per-call spans if
    /// the tally kept them.
    pub fn record_join(&mut self, query: u64, start_ns: u64, end_ns: u64, tally: Tally) {
        let root = self.push(0, query, "core.join", start_ns, end_ns);
        let busy = self.push(
            root,
            query,
            "storage.access",
            start_ns,
            start_ns + tally.busy_ns,
        );
        let wait = self.push(
            root,
            query,
            "storage.wait",
            start_ns,
            start_ns + tally.wait_ns,
        );
        for call in tally.calls {
            let parent = if call.name == "storage.wait.call" {
                wait
            } else {
                busy
            };
            self.push(parent, query, call.name, call.start_ns, call.end_ns);
        }
    }

    /// Appends a log that started no earlier than this one (another
    /// client thread's, a later phase's), keeping span and query ids
    /// unique and all times on this log's base.
    pub fn merge(&mut self, other: SpanLog) {
        let shift = self.next_id - 1;
        let base = self.ns_at(other.epoch);
        for mut s in other.spans {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s.query += self.queries;
            s.start_ns += base;
            s.end_ns += base;
            self.spans.push(s);
        }
        self.next_id += other.next_id - 1;
        self.queries += other.queries;
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One timed call, kept only while per-call detail is on.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one join did at the boundary.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// `access` calls (the join's logical page accesses).
    pub access_calls: u64,
    /// `access` calls that reported a miss.
    pub misses: u64,
    /// `pin` calls (each is later matched by one `unpin`).
    pub pin_calls: u64,
    /// `hint` and `will_access` calls.
    pub hint_calls: u64,
    /// Time inside `access`, `pin`, `unpin`, `hint`, `will_access`.
    pub busy_ns: u64,
    /// Time inside `await_ticket`, `await_settled`, `drain_completions`.
    pub wait_ns: u64,
    pub calls: Vec<Call>,
}

impl Tally {
    /// Adds `other`'s counts and times; per-call detail is not carried.
    pub fn add(&mut self, other: &Tally) {
        self.access_calls += other.access_calls;
        self.misses += other.misses;
        self.pin_calls += other.pin_calls;
        self.hint_calls += other.hint_calls;
        self.busy_ns += other.busy_ns;
        self.wait_ns += other.wait_ns;
    }
}

/// Forwards every [`NodeAccess`] call to `inner` and times it.
/// Accounting is untouched by construction; a unit test pins
/// `JoinStats` and the pair checksum through it to the bare backend's.
pub struct TracedAccess<A> {
    inner: A,
    clock: Clock,
    access_calls: u64,
    misses: u64,
    pin_calls: u64,
    hint_calls: u64,
    busy_ns: Cell<u64>,
    /// `Cell`: the blocking waits take `&self`.
    wait_ns: Cell<u64>,
}

/// The span log's time base plus the per-call detail switch.
struct Clock {
    epoch: Instant,
    /// Keep a [`Call`] per timed call (the first few joins only).
    detail: bool,
    calls: RefCell<Vec<Call>>,
}

impl Clock {
    #[inline]
    fn timed<T>(&self, total: &Cell<u64>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        total.set(total.get() + (end - start).as_nanos() as u64);
        if self.detail {
            self.calls.borrow_mut().push(Call {
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
        out
    }
}

impl<A: NodeAccess> TracedAccess<A> {
    /// Call times are on `log`'s time base, so they line up with the
    /// join spans filed there.
    pub fn new(inner: A, log: &SpanLog, detail: bool) -> Self {
        TracedAccess {
            inner,
            clock: Clock {
                epoch: log.epoch,
                detail,
                calls: RefCell::new(Vec::new()),
            },
            access_calls: 0,
            misses: 0,
            pin_calls: 0,
            hint_calls: 0,
            busy_ns: Cell::new(0),
            wait_ns: Cell::new(0),
        }
    }

    pub fn into_parts(self) -> (A, Tally) {
        let tally = Tally {
            access_calls: self.access_calls,
            misses: self.misses,
            pin_calls: self.pin_calls,
            hint_calls: self.hint_calls,
            busy_ns: self.busy_ns.get(),
            wait_ns: self.wait_ns.get(),
            calls: self.clock.calls.into_inner(),
        };
        (self.inner, tally)
    }
}

impl<A: NodeAccess> NodeAccess for TracedAccess<A> {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let Self {
            inner,
            clock,
            busy_ns,
            ..
        } = self;
        let miss = clock.timed(busy_ns, "storage.access.call", || {
            inner.access(store, page, depth)
        });
        self.access_calls += 1;
        self.misses += u64::from(miss);
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        self.pin_calls += 1;
        let Self {
            inner,
            clock,
            busy_ns,
            ..
        } = self;
        clock.timed(busy_ns, "storage.pin.call", || inner.pin(store, page))
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        let Self {
            inner,
            clock,
            busy_ns,
            ..
        } = self;
        clock.timed(busy_ns, "storage.unpin.call", || inner.unpin(store, page))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn will_access(&mut self, store: u8, page: PageId, depth: usize) {
        self.hint_calls += 1;
        let Self {
            inner,
            clock,
            busy_ns,
            ..
        } = self;
        clock.timed(busy_ns, "storage.hint.call", || {
            inner.will_access(store, page, depth)
        })
    }

    fn hint(&mut self, upcoming: &[PageRef]) {
        self.hint_calls += 1;
        let Self {
            inner,
            clock,
            busy_ns,
            ..
        } = self;
        clock.timed(busy_ns, "storage.hint.call", || inner.hint(upcoming))
    }

    fn completion_driven(&self) -> bool {
        self.inner.completion_driven()
    }

    fn last_miss_ticket(&self) -> Ticket {
        self.inner.last_miss_ticket()
    }

    // The polls are forwarded untimed: they are the cursor's inner loop
    // and return in nanoseconds; two clock reads would dwarf them.
    #[inline]
    fn is_complete(&self, ticket: Ticket) -> bool {
        self.inner.is_complete(ticket)
    }

    fn await_ticket(&self, ticket: Ticket) {
        self.clock.timed(&self.wait_ns, "storage.wait.call", || {
            self.inner.await_ticket(ticket)
        })
    }

    #[inline]
    fn is_settled(&self, ticket: Ticket) -> bool {
        self.inner.is_settled(ticket)
    }

    fn await_settled(&self, ticket: Ticket) {
        self.clock.timed(&self.wait_ns, "storage.wait.call", || {
            self.inner.await_settled(ticket)
        })
    }

    #[inline]
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn drain_completions(&self) {
        self.clock.timed(&self.wait_ns, "storage.wait.call", || {
            self.inner.drain_completions()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::PairCheck;
    use rsj_core::{JoinCursor, JoinPlan, JoinStats};
    use rsj_datagen::synthetic::{clustered_rects, uniform_rects};
    use rsj_rtree::{bulk, DataId, RTree, RTreeParams};
    use rsj_storage::BufferPool;

    fn tree(objects: Vec<rsj_datagen::SpatialObject>) -> RTree {
        let items: Vec<_> = objects.iter().map(|o| (o.mbr, DataId(o.id))).collect();
        bulk::str_load(RTreeParams::for_page_size(1024), &items, bulk::DEFAULT_FILL).unwrap()
    }

    fn join<A: NodeAccess>(r: &RTree, s: &RTree, access: A) -> (JoinStats, PairCheck, A) {
        let mut check = PairCheck::default();
        let mut cursor = JoinCursor::new(r, s, JoinPlan::sj4(), access);
        for (a, b) in &mut cursor {
            check.add(a, b);
        }
        (cursor.stats(), check, cursor.into_access())
    }

    #[test]
    fn wrappers_forward_faithfully() {
        let r = tree(clustered_rects(4000, 8, 25.0, 8.0, 7));
        let s = tree(uniform_rects(4000, 4.0, 8));
        let heights = [r.height() as usize, s.height() as usize];
        // Small enough that the join evicts and re-reads.
        let pool = || BufferPool::with_capacity_pages(8, &heights);

        let (bare_stats, bare_pairs, _) = join(&r, &s, pool());
        assert!(bare_pairs.count > 0 && bare_stats.io.disk_accesses > 0);

        let log = SpanLog::default();
        let (stats, pairs, traced) = join(&r, &s, TracedAccess::new(pool(), &log, true));
        assert_eq!(
            stats, bare_stats,
            "JoinStats through TracedAccess<BufferPool>"
        );
        assert_eq!(
            pairs, bare_pairs,
            "pair checksum through TracedAccess<BufferPool>"
        );
        let (_, tally) = traced.into_parts();
        assert_eq!(tally.access_calls, bare_stats.io.total_accesses());
        assert_eq!(tally.misses, bare_stats.io.disk_accesses);
        assert_eq!(tally.wait_ns, 0, "a BufferPool never blocks");
        // Detail mode kept one span per access, pin and unpin.
        assert_eq!(
            tally.calls.len() as u64,
            tally.access_calls + 2 * tally.pin_calls + tally.hint_calls
        );
        assert!(tally.calls.iter().all(|c| c.start_ns <= c.end_ns));

        let (stats, pairs, _) = join(&r, &s, NullAccess);
        assert_eq!(pairs, bare_pairs, "pair checksum over NullAccess");
        assert_eq!(stats.total_comparisons(), bare_stats.total_comparisons());
        assert_eq!(stats.io, IoStats::default());
    }

    #[test]
    fn merged_logs_keep_ids_unique_and_parents_intact() {
        let mut a = SpanLog::default();
        let qa = a.begin_query();
        a.record_join(qa, 0, 10, Tally::default());
        let mut b = SpanLog::default();
        let qb = b.begin_query();
        b.record_join(qb, 5, 9, Tally::default());
        a.merge(b);
        let mut ids: Vec<u64> = a.spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids, (1..=6).collect::<Vec<_>>());
        assert_eq!(a.spans[3].query, 2);
        assert_eq!(a.spans[4].parent, a.spans[3].id);
        assert_eq!(a.begin_query(), 3);
    }
}
