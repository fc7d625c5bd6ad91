//! Ordered whole-file page scans: [`scan_pages`].
//!
//! Opening a tree reads every page of its file once and decodes each into
//! the in-memory store. The outcome is order-dependent — page `i` lands in
//! store slot `i`, and the first bad page in *page* order is the error
//! reported — but neither the reads nor the decodes are: they are the same
//! positional `pread`s a join's misses are, each followed by work on that
//! page's bytes alone.
//!
//! [`scan_pages`] is that scan, behind [`crate::PageFile`]'s
//! [`crate::PageSource::scan`]: a positional reader `read_at(id, buf)`
//! and a per-page `decode(id, bytes)`, both callable from any thread. It
//! returns the decoded values in id order. Each page is read and decoded
//! by the same reader, while its bytes are still in that core's cache;
//! no page is handed from one thread to another.
//!
//! * **Probe.** The first `PROBE_PAGES` pages are read and decoded on the
//!   calling thread, each read and each decode timed apart. A page votes
//!   "waits" if its read outlasted `READ_BOUND` × its decode.
//! * **Readers.** The remaining pages go to a set of readers that claim
//!   ascending page ids from one atomic counter; the calling thread is one
//!   of them. On a majority of "waits" votes there are [`QUEUE_DEPTH`]
//!   readers — the depth the device model grants every join
//!   ([`crate::completion`], "Depth") — so the reads overlap; otherwise
//!   there is one reader per available core, so the decodes do. A file
//!   too short for more than one reader is scanned on the calling thread
//!   alone.
//!
//! Voting page by page rather than comparing totals keeps one stalled
//! read (a preempted thread, a lone page-cache miss) or one stalled decode
//! from deciding for the file.
//!
//! ## What the schedule does not change
//!
//! One `read_at` call per page, and never more than [`QUEUE_DEPTH`] at
//! once. The values come back in id order whoever decoded them. The error
//! returned is the first in page order: ids are claimed in ascending
//! order, so when page `k` fails every page below `k` has been claimed,
//! and each is finished before the scan returns; a failure stops further
//! claims. A panic in any reader or decode stops claims too and is
//! re-raised on the calling thread once every reader has been joined.
//!
//! ## How the constants were sized
//!
//! On the repo benchmark's trees (705 pages of 8 168-byte slots each, two
//! cores), opening both; "modelled" is `RSJ_READ_LATENCY_US=100`, which a
//! sleeping thread turns into ~175 µs a read.
//!
//! * *Depth* is [`QUEUE_DEPTH`], the one number the completion queue and
//!   the join cursor already share; the floor it sets is 705 × 175 µs / 16
//!   ≈ 7.7 ms a tree. The benchmark's `join_cold` opens its two trees in
//!   21.2 ms (median of three runs; 23.0 ms when one thread decoded what
//!   sixteen read).
//! * *Cores.* On a cached file a page's read, its decode and the first
//!   touch of the memory its entries land in are all CPU work, so readers
//!   past one per core only add threads. Opening the two trees in a loop
//!   (median of 31 opens, two rounds): 15.2–17.3 ms on one reader, 7.2–8.9
//!   on two, 9.0–10.3 on sixteen. Much of it is first-touch page faults —
//!   ~2 300 per open on one reader, ~1 200 on two, ~3 µs each here — which
//!   the readers split between them like the reads.
//! * `PROBE_PAGES` = 8. The probe is serial, so on a slow device each of
//!   its pages costs a full read: ~0.35 ms per probe page over the two
//!   trees. Eight is 1 % of such a file and the fewest that leaves a
//!   majority standing after three stray votes.
//! * `READ_BOUND` = 4. Over 186 probes each, the benchmark's cached files
//!   measure read/decode 0.5 at the median and 0.8 at the 99th
//!   percentile, with no vote of 8 in 185 probes and one in the last; the
//!   modelled device measures 24 at the median and 4.3 at the least, with
//!   8 votes of 8 in every probe. The bound sits between the two
//!   populations.

use std::panic;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::codec::StorageError;
use crate::completion::QUEUE_DEPTH;
use crate::page::PageId;

/// Pages read and decoded on the calling thread, timing read and decode
/// apart, before the number of readers is chosen (module docs).
const PROBE_PAGES: u32 = 8;

/// A probe page votes "waits" if its read took more than this many times
/// as long as its decode; a majority decides.
const READ_BOUND: u32 = 4;

/// Reads pages `0..page_count` through `read_at` and decodes each through
/// `decode`, every page exactly once (module docs). Both closures may be
/// called from several threads at once; `read_at` must fill `buf` with
/// page `id`'s bytes. Returns the decoded values in id order, or the
/// first error in page order — from either closure.
pub fn scan_pages<T, R, D>(page_count: u32, read_at: R, decode: D) -> Result<Vec<T>, StorageError>
where
    T: Send,
    R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
    D: Fn(PageId, &[u8]) -> Result<T, StorageError> + Sync,
{
    let mut out = Vec::with_capacity(page_count as usize);
    let mut buf = Vec::new();
    let probe = page_count.min(PROBE_PAGES);
    // Probe pages whose read outlasted READ_BOUND × their decode.
    let mut waited = 0;
    for id in (0..probe).map(PageId) {
        let start = Instant::now();
        read_at(id, &mut buf)?;
        let read = Instant::now();
        out.push(decode(id, &buf)?);
        waited += u32::from(read - start > read.elapsed() * READ_BOUND);
    }
    let remaining = (page_count - probe) as usize;
    let readers = if 2 * waited > probe {
        QUEUE_DEPTH
    } else {
        cores().min(QUEUE_DEPTH)
    }
    .clamp(1, remaining.max(1));
    let claims = Claims {
        next: AtomicU64::new(u64::from(probe)),
        end: u64::from(page_count),
        share: remaining.div_ceil(readers),
        failure: Mutex::new(None),
    };
    let read_and_decode = |buf: &mut Vec<u8>| claims.read_and_decode(buf, &read_at, &decode);
    let parts = if readers > 1 {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..readers)
                .map_while(|_| {
                    std::thread::Builder::new()
                        .name("rsj-scan".into())
                        .spawn_scoped(scope, || read_and_decode(&mut Vec::new()))
                        .ok() // carry on with the readers that did start
                })
                .collect();
            let mut parts = vec![read_and_decode(&mut buf)];
            let mut panicked = None;
            for reader in spawned {
                match reader.join() {
                    Ok(part) => parts.push(part),
                    Err(payload) => panicked = panicked.or(Some(payload)),
                }
            }
            if let Some(payload) = panicked {
                panic::resume_unwind(payload);
            }
            parts
        })
    } else {
        vec![read_and_decode(&mut buf)]
    };
    if let Some((_, err)) = claims
        .failure
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(err);
    }
    // The parts partition `probe..page_count`, each ascending: merge.
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    for id in probe..page_count {
        let part = parts
            .iter_mut()
            .find(|p| p.as_slice().first().is_some_and(|&(at, _)| at == id))
            .expect("every page is decoded by exactly one reader");
        out.extend(part.next().map(|(_, value)| value));
    }
    Ok(out)
}

/// One reader per available core, asked once per process: the answer
/// reads the scheduler's affinity mask and the cgroup's quota.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// What the readers of one scan share.
struct Claims {
    /// The page the next claim takes; raised to `end` to stop claims.
    /// `Relaxed` throughout: a claim publishes no data — each reader reads
    /// its own pages, and hands them back through its thread's join.
    next: AtomicU64,
    end: u64,
    /// The pages one reader expects to claim.
    share: usize,
    /// The failed page lowest in page order, and its error.
    failure: Mutex<Option<(u32, StorageError)>>,
}

impl Claims {
    /// Stops further claims: every later claim lands at or past `end`.
    fn stop(&self) {
        self.next.fetch_max(self.end, Relaxed);
    }

    /// One reader: claims the next page until none is left or the scan
    /// stopped, reads and decodes each into `buf`, and returns what it
    /// decoded with the page ids, ascending.
    fn read_and_decode<T, R, D>(&self, buf: &mut Vec<u8>, read_at: &R, decode: &D) -> Vec<(u32, T)>
    where
        R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError>,
        D: Fn(PageId, &[u8]) -> Result<T, StorageError>,
    {
        let _stop = StopOnPanic(self);
        let mut part = Vec::with_capacity(self.share);
        loop {
            let claimed = self.next.fetch_add(1, Relaxed);
            if claimed >= self.end {
                return part;
            }
            let id = PageId(claimed as u32);
            match read_at(id, buf).and_then(|()| decode(id, buf)) {
                Ok(value) => part.push((id.0, value)),
                Err(err) => {
                    self.stop();
                    let mut failure = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
                    if failure.as_ref().is_none_or(|&(at, _)| id.0 < at) {
                        *failure = Some((id.0, err));
                    }
                    return part;
                }
            }
        }
    }
}

/// Stops a scan's claims when its reader unwinds, so the other readers
/// finish the pages they hold and return instead of scanning on.
struct StopOnPanic<'a>(&'a Claims);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
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

    /// What a scan did to its reader and decode, observed from inside
    /// them.
    struct Meter {
        /// `read_at` calls per page.
        reads: Vec<AtomicU32>,
        /// `decode` calls per page.
        decodes: Vec<AtomicU32>,
        in_flight: AtomicUsize,
        max_in_flight: AtomicUsize,
        reader_threads: Mutex<HashSet<ThreadId>>,
    }

    impl Meter {
        fn new(pages: u32) -> Self {
            Meter {
                reads: (0..pages).map(|_| AtomicU32::new(0)).collect(),
                decodes: (0..pages).map(|_| AtomicU32::new(0)).collect(),
                in_flight: AtomicUsize::new(0),
                max_in_flight: AtomicUsize::new(0),
                reader_threads: Mutex::new(HashSet::new()),
            }
        }

        /// Wraps one `read_at` call.
        fn read<T>(&self, id: PageId, read: impl FnOnce() -> T) -> T {
            self.reads[id.0 as usize].fetch_add(1, SeqCst);
            let now = self.in_flight.fetch_add(1, SeqCst) + 1;
            self.max_in_flight.fetch_max(now, SeqCst);
            self.reader_threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            let out = read();
            self.in_flight.fetch_sub(1, SeqCst);
            out
        }

        /// Counts one `decode` call.
        fn decode(&self, id: PageId) {
            self.decodes[id.0 as usize].fetch_add(1, SeqCst);
        }

        /// Pages `0..upto` were each read and decoded exactly once, and
        /// no page was read or decoded twice.
        fn assert_each_once(&self, upto: u32) {
            for (id, (reads, decodes)) in self.reads.iter().zip(&self.decodes).enumerate() {
                let (reads, decodes) = (reads.load(SeqCst), decodes.load(SeqCst));
                assert!(
                    reads <= 1 && decodes <= 1,
                    "page {id}: {reads} reads, {decodes} decodes"
                );
                if (id as u32) < upto {
                    assert_eq!((reads, decodes), (1, 1), "page {id}");
                }
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

    /// Scans `pages` test pages, every read taking `read_time`; each
    /// decode checks its bytes and returns its page id.
    fn scan(pages: u32, read_time: Duration) -> (Meter, Vec<u32>) {
        let m = Meter::new(pages);
        let got = scan_pages(
            pages,
            |id, buf| {
                m.read(id, || std::thread::sleep(read_time));
                fill(id, buf);
                Ok(())
            },
            |id, bytes| {
                m.decode(id);
                assert_eq!(bytes, page_bytes(id), "page {id}");
                Ok(id.0)
            },
        )
        .unwrap();
        (m, got)
    }

    #[test]
    fn every_page_is_decoded_once_and_returned_in_order() {
        let edges = [PROBE_PAGES, PROBE_PAGES + QUEUE_DEPTH as u32];
        let mut counts = vec![0, 1, 200];
        counts.extend(edges.iter().flat_map(|&e| [e - 1, e, e + 1]));
        for read_time in [Duration::ZERO, SLOW] {
            for pages in counts.iter().copied() {
                let (m, got) = scan(pages, read_time);
                m.assert_each_once(pages);
                assert_eq!(
                    got,
                    (0..pages).collect::<Vec<_>>(),
                    "{pages} at {read_time:?}"
                );
            }
        }
    }

    #[test]
    fn slow_reads_overlap_up_to_the_queue_depth() {
        let (m, _) = scan(200, SLOW);
        let deepest = m.max_in_flight.load(SeqCst);
        assert!(
            (2..=QUEUE_DEPTH).contains(&deepest),
            "{deepest} reads in flight"
        );
        assert!(m.reader_threads.lock().unwrap().len() <= QUEUE_DEPTH);
    }

    #[test]
    fn instant_reads_take_one_reader_per_core() {
        // The probe's other side: decodes far slower than reads.
        let m = Meter::new(100);
        scan_pages(
            100,
            |id, buf| {
                m.read(id, || fill(id, buf));
                Ok(())
            },
            |id, _| {
                m.decode(id);
                std::thread::sleep(Duration::from_micros(20));
                Ok(())
            },
        )
        .unwrap();
        m.assert_each_once(100);
        let threads = m.reader_threads.lock().unwrap().len();
        assert!(threads <= cores().min(QUEUE_DEPTH), "{threads} readers");
        assert!(m.max_in_flight.load(SeqCst) <= cores().min(QUEUE_DEPTH));
        assert!(m
            .reader_threads
            .lock()
            .unwrap()
            .contains(&std::thread::current().id()));
    }

    fn failure(what: &str, id: PageId) -> StorageError {
        StorageError::Corrupt(format!("{what} {id}"))
    }

    fn assert_failed_with<T: std::fmt::Debug>(
        res: Result<T, StorageError>,
        what: &str,
        id: PageId,
    ) {
        match res {
            Err(StorageError::Corrupt(msg)) => assert_eq!(msg, format!("{what} {id}")),
            other => panic!("expected the {what} failure at {id}, got {other:?}"),
        }
    }

    #[test]
    fn the_first_failure_in_page_order_wins_and_stops_new_claims() {
        // A failed read at k, in the probe, at the switch, mid-file and
        // at the last page; every later page's decode fails too, and
        // sooner (its read does not sleep), so an error collected in
        // completion order would name the wrong page.
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
                    if id.0 == k {
                        return Err(failure("read", id));
                    }
                    fill(id, buf);
                    Ok(())
                },
                |id, _| {
                    m.decode(id);
                    if id.0 > k {
                        return Err(failure("decode", id));
                    }
                    Ok(())
                },
            );
            assert_failed_with(res, "read", PageId(k));
            m.assert_each_once(k);
            // Once page k failed, at most the pages already claimed by
            // the other readers are read.
            let furthest = m.reads.iter().rposition(|c| c.load(SeqCst) > 0).unwrap();
            assert!(
                furthest < k as usize + QUEUE_DEPTH,
                "page {furthest} read after page {k} failed"
            );
        }
    }

    #[test]
    fn a_panicking_decode_unwinds_with_every_reader_joined() {
        let m = Meter::new(100);
        let scan = panic::catch_unwind(|| {
            scan_pages(
                100,
                |id, buf| {
                    m.read(id, || std::thread::sleep(SLOW));
                    fill(id, buf);
                    Ok(())
                },
                |id, _| {
                    assert_ne!(id.0, 40, "decode gives up");
                    m.decode(id);
                    Ok(())
                },
            )
        });
        assert!(scan.is_err(), "the decode's panic must reach the caller");
        // Every reader has been joined: none is still reading, and none
        // starts another page after the scan returned.
        assert_eq!(m.in_flight.load(SeqCst), 0);
        let reads = |m: &Meter| m.reads.iter().map(|c| c.load(SeqCst)).sum::<u32>();
        let after = reads(&m);
        std::thread::sleep(4 * SLOW);
        assert_eq!(reads(&m), after);
        m.assert_each_once(40);
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
            let got = file.scan(|_, bytes| Ok(bytes.to_vec())).unwrap();
            assert_eq!(got, want, "latency {latency:?}");
            assert_eq!(file.reads(), 90, "latency {latency:?}");
        }
        // A decode that fails at page 30 was handed page 30, and no page
        // was read twice.
        file.reset_io();
        let res = file.scan(|id, _| match id.0 {
            30 => Err(failure("decode", id)),
            _ => Ok(()),
        });
        assert_failed_with(res, "decode", PageId(30));
        assert!((31..=90).contains(&file.reads()), "{} reads", file.reads());
    }
}
