//! Ordered whole-file page scans: [`scan_pages`].
//!
//! Opening a tree reads every page of its file once, in id order, and
//! decodes each into the in-memory store. The decode is order-dependent
//! (page `i` must land in store slot `i`; the first bad page in *page*
//! order is the error reported), but the reads are not: they are the same
//! positional `pread`s a join's misses are, and the device model that
//! grants every join [`QUEUE_DEPTH`] reads at once
//! ([`crate::completion`], "Depth") grants them to a scan too.
//!
//! [`scan_pages`] is that scan, behind [`crate::PageFile`]'s
//! [`crate::PageSource::scan`]: a positional reader
//! `read_at(id, buf)` that any thread may call, and a `sink(id, bytes)`
//! that is only ever called on the calling thread, once per page, in id
//! order. It has one observable behaviour and two schedules:
//!
//! * **Serial** — read a page, sink it, read the next; one buffer, no
//!   thread. Every scan starts this way.
//! * **Overlapped** — [`QUEUE_DEPTH`] scoped reader threads claim page ids
//!   in ascending order and read them into a ring of `WINDOW` slot
//!   buffers while the calling thread goes on sinking in page order. A
//!   slot is busy from the moment a reader claims its page until the
//!   consumer has sunk it, so a reader runs at most `WINDOW` pages ahead
//!   of the consumer and the consumer waits on exactly one slot: the next
//!   page's.
//!
//! The choice is measured, not configured. The first `PROBE_PAGES` pages
//! go through the serial loop with each read and each sink call timed
//! apart, and a page votes for overlap if its read outlasted
//! `READ_BOUND` × the sink call it fed; the scan switches schedule only
//! on a majority — that is, only when the calling thread would otherwise
//! spend most of the scan waiting for the device. A file in the OS page
//! cache reads a page in about the time it takes to decode one, so it
//! stays serial and never pays for threads with nothing to wait for; a
//! device that takes 100 µs a page switches. Voting page by page rather
//! than comparing totals keeps one stalled read (a preempted thread, a
//! lone page-cache miss) or one stalled sink from deciding for the file.
//!
//! ## What overlap does not change
//!
//! One `read_at` call per page, in both schedules; never more than
//! [`QUEUE_DEPTH`] of them at once (the calling thread stops reading when
//! the readers start). The sink sees the same pages with the same bytes
//! in the same order, so whatever it builds — and whichever error it or a
//! read reports first in page order — is the serial loop's. A failed read
//! at page `k` is held in `k`'s slot until the consumer gets there:
//! a later page whose read failed earlier in time never overtakes it.
//! After the first error (or a panic on either side) no new page is
//! claimed, readers parked on ring space are woken, and every reader is
//! joined before [`scan_pages`] returns. The ring's buffers are allocated
//! by the calling thread at the size the probe saw, so reader threads
//! never allocate.
//!
//! ## How the constants were sized
//!
//! On the repo benchmark's trees (705 pages of 8 168-byte slots each, two
//! cores), opening both; "modelled" is `RSJ_READ_LATENCY_US=100`, which a
//! sleeping thread turns into ~175 µs a read.
//!
//! * *Depth* is [`QUEUE_DEPTH`], the one number the completion queue and
//!   the join cursor already share; the floor it sets is 705 × 175 µs / 16
//!   ≈ 7.7 ms a tree.
//! * `WINDOW` = 2 × depth. A slot frees only when the *consumer* passes
//!   it, and reads finish out of order, so a ring of one depth leaves
//!   readers parked behind the oldest unfinished read: 34–40 ms for the
//!   two trees, against 22.5–25.5 ms at two depths, 22–25.4 at four and
//!   22–26.6 at eight — the knee is at two, and the ring is 32 buffers
//!   (256 KiB here) for the length of the open.
//! * `PROBE_PAGES` = 8. The probe is serial, so on a slow device each of
//!   its pages costs a full read: ~0.35 ms per probe page over the two
//!   trees (probe 2 read 21–26 ms, 4 24–29, 8 23–30, 16 30–37, 32 37–45
//!   in one noisy sitting). Eight is 1 % of such a file, ~1.4 ms of a
//!   ~11 ms tree open, and the fewest that leaves a majority standing
//!   after three stray votes.
//! * `READ_BOUND` = 4. Cached, the benchmark's files measure read/sink
//!   0.6–1.4 × over a probe (one 2.7 × in ten opens, from a single slow
//!   first read) and 0–1 votes of 8; the unit tests' 168–648-byte slots
//!   0.8–2.5 ×; the modelled device 30–85 × and 8 votes of 8. The wrong
//!   choice is dear in both directions — overlap forced onto the cached
//!   files opens them in 16–21 ms instead of 5–7.5 (a futex hand-off per
//!   page costs more than the microsecond read it hides), serial on the
//!   modelled device in ~265 instead of ~23 — so the bound sits between
//!   the two populations, a factor of three from the nearest.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::codec::StorageError;
use crate::completion::QUEUE_DEPTH;
use crate::page::PageId;

/// Pages read serially, timing read and sink apart, before the schedule
/// is chosen (module docs).
const PROBE_PAGES: u32 = 8;

/// A probe page votes for overlap if its read took more than this many
/// times as long as the sink call it fed; a majority decides.
const READ_BOUND: u32 = 4;

/// Ring slots: how far the readers may run ahead of the consumer.
const WINDOW: usize = 2 * QUEUE_DEPTH;

/// Feeds pages `0..page_count` to `sink` in id order, each read exactly
/// once through `read_at` (module docs). `read_at` must fill `buf` with
/// page `id`'s bytes and may be called from several threads at once;
/// `sink` runs on the calling thread only. The first error in page order
/// — from either closure — ends the scan and is returned.
pub fn scan_pages<R, S>(page_count: u32, read_at: R, mut sink: S) -> Result<(), StorageError>
where
    R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
    S: FnMut(PageId, &[u8]) -> Result<(), StorageError>,
{
    let mut buf = Vec::new();
    let probe = page_count.min(PROBE_PAGES);
    // Probe pages whose read outlasted READ_BOUND × the sink it fed.
    let mut waited = 0;
    for id in (0..probe).map(PageId) {
        let start = Instant::now();
        read_at(id, &mut buf)?;
        let read = Instant::now();
        sink(id, &buf)?;
        waited += u32::from(read - start > read.elapsed() * READ_BOUND);
    }
    let mut next = probe;
    if next < page_count && 2 * waited > probe {
        next = scan_overlapped(next, page_count, buf.len(), &read_at, &mut sink)?;
    }
    // Serial from here: the whole remainder when the probe chose so (or
    // no reader thread could be started), nothing after an overlapped run.
    for id in (next..page_count).map(PageId) {
        read_at(id, &mut buf)?;
        sink(id, &buf)?;
    }
    Ok(())
}

/// One ring slot. Page `id` uses slot `id % slots.len()`.
enum Slot {
    /// Nobody's: the reader that claims the slot's next page takes the
    /// buffer.
    Free(Vec<u8>),
    /// Held by the reader filling it, or by the consumer sinking it.
    Busy,
    /// Read finished (well or badly); waiting for the consumer.
    Loaded(Vec<u8>, Result<(), StorageError>),
}

/// What the ring mutex guards.
struct RingState {
    slots: Vec<Slot>,
    /// The page the next claiming reader takes.
    next: u32,
    /// Claims stop here: the page count, lowered past a failed read and
    /// to zero when the consumer leaves.
    end: u32,
    /// Pages below this have been sunk; their slots are free again.
    consumed: u32,
    /// Readers asleep on [`Ring::space`] — the consumer notifies only
    /// when there is one.
    parked_readers: usize,
    /// A reader thread unwound out of `read_at`.
    reader_panicked: bool,
}

/// The bounded read-ahead ring between the readers and the consumer.
struct Ring {
    state: Mutex<RingState>,
    /// Readers wait here for `next < consumed + slots.len()`.
    space: Condvar,
    /// The consumer waits here for the slot of page `consumed`.
    loaded: Condvar,
}

impl Ring {
    /// Locks the ring, recovering from poison: every update below leaves
    /// the state consistent between statements, and the panic that
    /// poisoned it is re-raised by the scope that joins the readers.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stops the readers when the consumer leaves, however it leaves: no
/// further claims, and every reader parked on ring space woken.
struct StopOnDrop<'a>(&'a Ring);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().end = 0;
        self.0.space.notify_all();
    }
}

/// Tells the consumer when a reader unwinds, so it does not wait for a
/// page that reader had claimed.
struct ReaderGuard<'a>(&'a Ring);

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().reader_panicked = true;
            self.0.loaded.notify_one();
        }
    }
}

/// The overlapped schedule over pages `from..page_count` (module docs).
/// Returns the first page not yet sunk: `page_count`, or `from` when the
/// OS refused even one reader thread and the caller carries on serially.
fn scan_overlapped<R, S>(
    from: u32,
    page_count: u32,
    slot_bytes: usize,
    read_at: &R,
    sink: &mut S,
) -> Result<u32, StorageError>
where
    R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
    S: FnMut(PageId, &[u8]) -> Result<(), StorageError>,
{
    let remaining = (page_count - from) as usize;
    let ring = Ring {
        state: Mutex::new(RingState {
            slots: (0..WINDOW.min(remaining))
                .map(|_| Slot::Free(Vec::with_capacity(slot_bytes)))
                .collect(),
            next: from,
            end: page_count,
            consumed: from,
            parked_readers: 0,
            reader_panicked: false,
        }),
        space: Condvar::new(),
        loaded: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&ring);
        let mut readers = 0;
        for _ in 0..QUEUE_DEPTH.min(remaining) {
            let spawned = std::thread::Builder::new()
                .name("rsj-scan".into())
                .spawn_scoped(scope, || read_loop(&ring, read_at));
            if spawned.is_err() {
                break; // carry on with the readers that did start
            }
            readers += 1;
        }
        if readers == 0 {
            return Ok(from);
        }
        consume(&ring, from, page_count, sink).map(|()| page_count)
    })
}

/// One reader: claims the next page while the ring has room for it,
/// reads it outside the lock, files the outcome in the page's slot.
fn read_loop<R>(ring: &Ring, read_at: &R)
where
    R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
{
    let _guard = ReaderGuard(ring);
    let mut st = ring.lock();
    loop {
        while st.next < st.end && (st.next - st.consumed) as usize >= st.slots.len() {
            st.parked_readers += 1;
            st = ring.space.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked_readers -= 1;
        }
        if st.next >= st.end {
            return;
        }
        let id = st.next;
        st.next += 1;
        let slot = id as usize % st.slots.len();
        let Slot::Free(mut buf) = std::mem::replace(&mut st.slots[slot], Slot::Busy) else {
            unreachable!(
                "page {id} claimed while page {} holds its slot",
                st.consumed
            )
        };
        drop(st);
        let res = read_at(PageId(id), &mut buf);
        st = ring.lock();
        if res.is_err() {
            // The scan ends at this page or before it.
            st.end = st.end.min(id + 1);
        }
        st.slots[slot] = Slot::Loaded(buf, res);
        if id == st.consumed {
            ring.loaded.notify_one();
        }
    }
}

/// The consumer: sinks pages `from..page_count` in order on the calling
/// thread, each as soon as its slot is loaded.
fn consume<S>(ring: &Ring, from: u32, page_count: u32, sink: &mut S) -> Result<(), StorageError>
where
    S: FnMut(PageId, &[u8]) -> Result<(), StorageError>,
{
    for id in from..page_count {
        let mut st = ring.lock();
        let slot = id as usize % st.slots.len();
        while !matches!(st.slots[slot], Slot::Loaded(..)) {
            assert!(!st.reader_panicked, "a page-scan reader panicked");
            st = ring.loaded.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let Slot::Loaded(buf, res) = std::mem::replace(&mut st.slots[slot], Slot::Busy) else {
            unreachable!("checked under the same lock")
        };
        drop(st);
        res?;
        sink(PageId(id), &buf)?;
        let mut st = ring.lock();
        st.slots[slot] = Slot::Free(buf);
        st.consumed = id + 1;
        if st.parked_readers > 0 {
            ring.space.notify_one();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageSource;
    use crate::temp::demo::demo_file;
    use crate::temp::TempDir;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::SeqCst};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A read slow enough that the probe always finds the scan waiting.
    const SLOW: Duration = Duration::from_micros(300);

    /// What a scan did to its reader and sink, observed from inside them.
    struct Meter {
        /// `read_at` calls per page.
        calls: Vec<AtomicU32>,
        in_flight: AtomicUsize,
        max_in_flight: AtomicUsize,
        /// Pages whose sink call has started.
        sunk: AtomicU32,
        /// Most pages a read was ever claimed ahead of `sunk`.
        max_lead: AtomicU32,
        reader_threads: Mutex<HashSet<ThreadId>>,
        /// Ids in sink order.
        delivered: Mutex<Vec<u32>>,
    }

    impl Meter {
        fn new(pages: u32) -> Self {
            Meter {
                calls: (0..pages).map(|_| AtomicU32::new(0)).collect(),
                in_flight: AtomicUsize::new(0),
                max_in_flight: AtomicUsize::new(0),
                sunk: AtomicU32::new(0),
                max_lead: AtomicU32::new(0),
                reader_threads: Mutex::new(HashSet::new()),
                delivered: Mutex::new(Vec::new()),
            }
        }

        /// Wraps one `read_at` call.
        fn read<T>(&self, id: PageId, read: impl FnOnce() -> T) -> T {
            self.calls[id.0 as usize].fetch_add(1, SeqCst);
            let now = self.in_flight.fetch_add(1, SeqCst) + 1;
            self.max_in_flight.fetch_max(now, SeqCst);
            self.max_lead
                .fetch_max(id.0 + 1 - self.sunk.load(SeqCst), SeqCst);
            self.reader_threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            let out = read();
            self.in_flight.fetch_sub(1, SeqCst);
            out
        }

        /// Wraps the start of one sink call.
        fn sink(&self, id: PageId) {
            self.sunk.store(id.0 + 1, SeqCst);
            self.delivered.lock().unwrap().push(id.0);
        }

        /// Pages `0..upto` reached the sink once each, in order, and no
        /// page was read twice.
        fn assert_delivered_in_order(&self, upto: u32) {
            let want: Vec<u32> = (0..upto).collect();
            assert_eq!(*self.delivered.lock().unwrap(), want);
            for (id, calls) in self.calls.iter().enumerate() {
                assert!(calls.load(SeqCst) <= 1, "page {id} read twice");
            }
        }
    }

    /// The bytes a test reader serves for page `id`.
    fn page_bytes(id: PageId) -> [u8; 48] {
        [id.0 as u8; 48]
    }

    fn fill(id: PageId, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&page_bytes(id));
    }

    /// Scans `pages` test pages, every read taking [`SLOW`], the sink
    /// taking `sink_time` once the probe is over.
    fn slow_scan(pages: u32, sink_time: Duration) -> Meter {
        let m = Meter::new(pages);
        scan_pages(
            pages,
            |id, buf| {
                m.read(id, || std::thread::sleep(SLOW));
                fill(id, buf);
                Ok(())
            },
            |id, bytes| {
                m.sink(id);
                assert_eq!(bytes, page_bytes(id), "page {id}");
                if id.0 >= PROBE_PAGES {
                    std::thread::sleep(sink_time);
                }
                Ok(())
            },
        )
        .unwrap();
        m
    }

    #[test]
    fn slow_reads_overlap_up_to_the_queue_depth_and_arrive_in_order() {
        let m = slow_scan(200, Duration::ZERO);
        m.assert_delivered_in_order(200);
        assert!(m.calls.iter().all(|c| c.load(SeqCst) == 1));
        let deepest = m.max_in_flight.load(SeqCst);
        assert!(
            (2..=QUEUE_DEPTH).contains(&deepest),
            "{deepest} reads in flight"
        );
        assert!(m.max_lead.load(SeqCst) as usize <= WINDOW);
    }

    #[test]
    fn readers_never_run_further_ahead_than_the_ring() {
        // Sixteen readers at SLOW outrun a sink this slow many times
        // over, so they spend the scan parked on ring space.
        let m = slow_scan(120, SLOW);
        m.assert_delivered_in_order(120);
        let lead = m.max_lead.load(SeqCst) as usize;
        assert!(lead > 1, "no read was ever claimed ahead of the sink");
        assert!(lead <= WINDOW, "a read ran {lead} pages ahead");
        assert!(m.max_in_flight.load(SeqCst) <= QUEUE_DEPTH);
    }

    #[test]
    fn instant_reads_stay_on_the_calling_thread() {
        // The serial side of the probe: nothing to wait for, no reader.
        let m = Meter::new(60);
        scan_pages(
            60,
            |id, buf| {
                m.read(id, || fill(id, buf));
                Ok(())
            },
            |id, bytes| {
                m.sink(id);
                assert_eq!(bytes, page_bytes(id));
                std::thread::sleep(Duration::from_micros(20));
                Ok(())
            },
        )
        .unwrap();
        m.assert_delivered_in_order(60);
        assert_eq!(m.max_in_flight.load(SeqCst), 1);
        let me = std::thread::current().id();
        assert_eq!(*m.reader_threads.lock().unwrap(), HashSet::from([me]));
    }

    #[test]
    fn files_shorter_than_probe_ring_or_pool_scan_whole() {
        let edges = [PROBE_PAGES, PROBE_PAGES + QUEUE_DEPTH as u32];
        let mut counts = vec![0, 1, PROBE_PAGES + WINDOW as u32 + 5];
        counts.extend(edges.iter().flat_map(|&e| [e - 1, e, e + 1]));
        for pages in counts {
            let m = slow_scan(pages, Duration::ZERO);
            m.assert_delivered_in_order(pages);
            assert!(m.calls.iter().all(|c| c.load(SeqCst) == 1), "{pages}");
        }
    }

    fn failure(what: &str, id: PageId) -> StorageError {
        StorageError::Corrupt(format!("{what} {id}"))
    }

    fn assert_failed_with(res: Result<(), StorageError>, what: &str, id: PageId) {
        match res {
            Err(StorageError::Corrupt(msg)) => assert_eq!(msg, format!("{what} {id}")),
            other => panic!("expected the {what} failure at {id}, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_read_is_reported_in_page_order() {
        // In the probe, at the switch, mid-file, and at the last page;
        // every later page fails too, and fails *sooner* (no sleep), so
        // an error collected in completion order would name the wrong
        // page.
        for k in [3, PROBE_PAGES, 57, 99] {
            let m = Meter::new(100);
            let res = scan_pages(
                100,
                |id, buf| {
                    m.read(id, || {
                        if id.0 <= k {
                            std::thread::sleep(SLOW);
                        }
                    });
                    if id.0 >= k {
                        return Err(failure("read", id));
                    }
                    fill(id, buf);
                    Ok(())
                },
                |id, _| {
                    m.sink(id);
                    Ok(())
                },
            );
            assert_failed_with(res, "read", PageId(k));
            m.assert_delivered_in_order(k);
            let furthest = m.calls.iter().rposition(|c| c.load(SeqCst) > 0).unwrap();
            assert!(
                furthest < k as usize + WINDOW,
                "page {furthest} read after page {k} failed"
            );
        }
    }

    #[test]
    fn a_failed_sink_ends_the_scan_and_releases_parked_readers() {
        // Slow probe reads pick the overlapped side; instant ones after
        // it fill the ring while the sink dawdles, so the failure finds
        // readers parked on ring space. Returning at all is the check
        // that they were woken and joined.
        for k in [3, PROBE_PAGES, 57, 99] {
            let m = Meter::new(100);
            let res = scan_pages(
                100,
                |id, buf| {
                    m.read(id, || {
                        if id.0 < PROBE_PAGES {
                            std::thread::sleep(SLOW);
                        }
                    });
                    fill(id, buf);
                    Ok(())
                },
                |id, _| {
                    m.sink(id);
                    std::thread::sleep(Duration::from_micros(20));
                    if id.0 == k {
                        return Err(failure("sink", id));
                    }
                    Ok(())
                },
            );
            assert_failed_with(res, "sink", PageId(k));
            m.assert_delivered_in_order(k + 1);
            assert!(m.max_lead.load(SeqCst) as usize <= WINDOW);
        }
    }

    #[test]
    fn a_panicking_reader_fails_the_scan_instead_of_hanging_it() {
        let scan = std::panic::catch_unwind(|| {
            scan_pages(
                100,
                |id, buf| {
                    std::thread::sleep(SLOW);
                    assert_ne!(id.0, 40, "reader gives up");
                    fill(id, buf);
                    Ok(())
                },
                |_, _| Ok(()),
            )
        });
        assert!(scan.is_err(), "the reader's panic must reach the caller");
    }

    #[test]
    fn page_file_scan_matches_read_page_into_and_charges_once_per_page() {
        let dir = TempDir::new("scan").unwrap();
        let mut file = demo_file(&dir, "t.rsj", 90);
        let mut want = Vec::new();
        for id in 0..90 {
            want.push(file.read_page(PageId(id)).unwrap());
        }
        for latency in [None, Some(SLOW)] {
            file.set_read_latency(latency);
            file.reset_io();
            let mut got = Vec::new();
            file.scan(|id, bytes| {
                assert_eq!(id.0 as usize, got.len());
                got.push(bytes.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(got, want, "latency {latency:?}");
            assert_eq!(file.reads(), 90, "latency {latency:?}");
        }
        // A sink that stops at page 30 has been handed 31 pages.
        file.reset_io();
        let res = file.scan(|id, _| match id.0 {
            30 => Err(failure("sink", id)),
            _ => Ok(()),
        });
        assert_failed_with(res, "sink", PageId(30));
        assert_eq!(file.reads(), 31);
    }
}
