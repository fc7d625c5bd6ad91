//! Ordered page scans over one or more page files: [`scan_sources`].
//!
//! Opening a tree reads every page of its file once and decodes each into
//! the in-memory store, and a join service opens its two trees together.
//! The outcome is order-dependent — page `i` of file `f` lands in slot
//! `i` of `f`'s result, and the first bad page in *file, then page* order
//! is the error reported — but neither the reads nor the decodes are:
//! they are the same positional `pread`s a join's misses are, each
//! followed by work on that page's bytes alone.
//!
//! [`scan_sources`] is that scan over [`crate::PageSource`]s: a
//! positional read of page `id` of file `f` and a per-page `decode(f, id,
//! bytes)`, both called from any of the scan's threads. It returns each
//! file's decoded values in id order. Each page is read and decoded by
//! the same reader, while its bytes are still in that core's cache; no
//! page is handed from one thread to another.
//!
//! * **Claims.** One atomic counter runs over every page of every file,
//!   the first file's pages first, then the second's, and so on; a reader
//!   claims the next page from it until none is left. The calling thread
//!   is one of the readers.
//! * **Readers.** The scan starts one reader per available core
//!   ([`cores`], at most one per `VOTES` pages), so a quick file's
//!   decodes overlap from its first page; no page is read before they
//!   start.
//! * **Votes.** Until the scan has decided, those readers time each read
//!   and its decode apart, and a page votes "waits" if its read outlasted
//!   `READ_BOUND` × its decode. Of the first `VOTES` votes, a majority
//!   of "waits" starts readers up to [`QUEUE_DEPTH`] — the depth the
//!   device model grants every join ([`crate::completion`], "Depth") — so
//!   the reads overlap; otherwise the scan keeps one reader per core, in
//!   total, across all its files. The vote that settles it is the
//!   majority's fifth "waits" or the minority's fourth "quick", whichever
//!   lands first.
//!
//! Voting page by page rather than comparing totals keeps one stalled
//! read (a preempted thread, a lone page-cache miss) or one stalled decode
//! from deciding for the scan.
//!
//! ## What the schedule does not change
//!
//! One `read_at` call per page, and never more than [`QUEUE_DEPTH`] at
//! once, across all the files of the scan. Each file's values come back
//! in id order whoever decoded them. The error returned is the first in
//! claim order — the earliest file that failed, at its first failing page
//! — which is the error opening the files one after the other would
//! report: pages are claimed in ascending order, so when a page fails
//! every page before it (in every earlier file, too) has been claimed,
//! and each is finished before the scan returns; a failure stops further
//! claims. A panic in any reader or decode stops claims too and is
//! re-raised on the calling thread once every reader has finished.
//!
//! ## How the constants were sized
//!
//! On the repo benchmark's trees (705 pages of 8 168-byte slots each, two
//! cores), opening both; "modelled" is `RSJ_READ_LATENCY_US=100`, which a
//! sleeping thread turns into ~165 µs a read.
//!
//! * *Depth* is [`QUEUE_DEPTH`], the one number the completion queue and
//!   the join cursor already share; the floor it sets is 1 410 × 165 µs /
//!   16 ≈ 14.5 ms for the pair. The benchmark's `join_cold` opened the
//!   pair in 20.1–20.4 ms (medians of ten runs) when each tree was
//!   scanned on its own after a serial probe of 8 pages, and in 17.2–17.6
//!   ms in one scan; a bare pair scan that decodes nothing takes ~15.4
//!   ms in a loop of opens.
//! * *Cores.* On a cached file a page's read, its decode and the first
//!   touch of the memory its entries land in are all CPU work, so readers
//!   past one per core only add threads. Opening the two trees in a loop
//!   (median of 31 opens, two rounds): 15.2–17.3 ms on one reader, 7.2–8.9
//!   on two, 9.0–10.3 on sixteen. Much of it is first-touch page faults —
//!   ~2 300 per open on one reader, ~1 200 on two, ~3 µs each here — which
//!   the readers split between them like the reads. A prototype that gave
//!   each tree of a pair its own pool (four readers on two cores) opened
//!   cached pairs 6–25 % slower, so the count is for the scan, not for
//!   each file.
//! * `VOTES` = 8, the fewest that leaves a majority standing after three
//!   stray votes. The votes are cast on pages the readers read anyway, so
//!   they cost no read of their own; on the modelled device the fifth
//!   "waits" lands after three rounds of one-per-core reads.
//! * `READ_BOUND` = 4. Over 186 probes of 8 pages each, the benchmark's
//!   cached files measure read/decode 0.5 at the median and 0.8 at the
//!   99th percentile, with no vote of 8 in 185 probes and one in the last;
//!   the modelled device measures 24 at the median and 4.3 at the least,
//!   with 8 votes of 8 in every probe. The bound sits between the two
//!   populations.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Scope};
use std::time::Instant;

use crate::codec::StorageError;
use crate::completion::QUEUE_DEPTH;
use crate::file::PageSource;
use crate::page::PageId;

/// Votes that decide between one reader per core and [`QUEUE_DEPTH`]
/// readers (module docs); a scan also starts at most one reader per this
/// many pages.
const VOTES: u32 = 8;

/// "Waits" votes that start the readers up to [`QUEUE_DEPTH`].
const MAJORITY: u32 = VOTES / 2 + 1;

/// A page votes "waits" if its read took more than this many times as
/// long as its decode.
const READ_BOUND: u32 = 4;

/// One "quick" vote in [`Scan::ballots`]; a "waits" vote is 1.
const QUICK: u32 = 1 << 16;

/// The cores this process may run on, asked once per process: the answer
/// reads the scheduler's affinity mask and the cgroup's quota.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Reads pages `0..page_counts[f]` of every file `f` through `read_at` and
/// decodes each through `decode`, every page exactly once, in one scan
/// (module docs). Both closures may be called from several threads at
/// once; `read_at(f, id, buf)` must fill `buf` with page `id` of file `f`.
/// The result is [`scan_sources`]'s.
fn scan_files<T, R, D>(
    page_counts: &[u32],
    read_at: R,
    decode: D,
) -> Vec<Result<Vec<T>, StorageError>>
where
    T: Send,
    R: Fn(usize, PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
    D: Fn(usize, PageId, &[u8]) -> Result<T, StorageError> + Sync,
{
    let ends: Vec<u64> = page_counts
        .iter()
        .scan(0, |end, &pages| {
            *end += u64::from(pages);
            Some(*end)
        })
        .collect();
    let end = ends.last().copied().unwrap_or(0);
    let scan = Scan {
        read_at,
        decode,
        ends,
        next: AtomicU64::new(0),
        end,
        readers: AtomicUsize::new(1),
        ballots: AtomicU32::new(0),
        parts: Mutex::new(Vec::new()),
        failure: Mutex::new(None),
        panicked: Mutex::new(None),
    };
    let first = cores()
        .min(QUEUE_DEPTH)
        .min(end.div_ceil(u64::from(VOTES)) as usize);
    let share = end.div_ceil(first.max(1) as u64) as usize;
    thread::scope(|scope| {
        for _ in 1..first {
            if !scan.spawn(scope, true, share) {
                break; // carry on with the readers that did start
            }
        }
        scan.read(scope, true, share);
    });
    scan.finish()
}

/// Reads every page of every source through [`PageSource::scan_read`] and
/// decodes each through `decode(source index, id, bytes)`, every page
/// exactly once, in one scan (module docs); `decode` may run on several
/// threads at once. Charges each source, through
/// [`PageSource::charge_scan`], the reads the scan made of it.
///
/// Returns one entry per source, in order, until the first failure: a
/// source's decoded values in id order, or the first error in its page
/// order — of the read or the decode. The sources after a failed one were
/// not scanned to the end and have no entry.
pub fn scan_sources<T: Send>(
    sources: &mut [&mut dyn PageSource],
    decode: impl Fn(usize, PageId, &[u8]) -> Result<T, StorageError> + Sync,
) -> Vec<Result<Vec<T>, StorageError>> {
    let page_counts: Vec<u32> = sources.iter().map(|s| s.page_count()).collect();
    let reads: Vec<AtomicU64> = sources.iter().map(|_| AtomicU64::new(0)).collect();
    let shared: &[&mut dyn PageSource] = sources;
    let out = scan_files(
        &page_counts,
        |f, id, buf| {
            shared[f].scan_read(id, buf)?;
            reads[f].fetch_add(1, Relaxed);
            Ok(())
        },
        decode,
    );
    for (source, reads) in sources.iter_mut().zip(reads) {
        source.charge_scan(reads.into_inner());
    }
    out
}

/// One reader's decoded pages with their claim indices, ascending.
type Part<T> = Vec<(u64, T)>;

/// What the readers of one scan share.
struct Scan<T, R, D> {
    read_at: R,
    decode: D,
    /// `ends[f]`: the claim index one past file `f`'s last page.
    ends: Vec<u64>,
    /// The claim index the next claim takes; raised to `end` to stop
    /// claims. `Relaxed` throughout: a claim publishes no data — each
    /// reader reads its own pages and hands them back through `parts`.
    next: AtomicU64,
    end: u64,
    /// Readers started, the calling thread included; never past
    /// [`QUEUE_DEPTH`].
    readers: AtomicUsize,
    /// Votes cast: "waits" in the low 16 bits, "quick" in steps of
    /// [`QUICK`].
    ballots: AtomicU32,
    /// Every finished reader's part.
    parts: Mutex<Vec<Part<T>>>,
    /// The failed page lowest in claim order, and its error.
    failure: Mutex<Option<(u64, StorageError)>>,
    /// The first panic of a reader or a decode.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, D> Scan<T, R, D>
where
    T: Send,
    R: Fn(usize, PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
    D: Fn(usize, PageId, &[u8]) -> Result<T, StorageError> + Sync,
{
    /// Starts one more reader, if the scan has fewer than [`QUEUE_DEPTH`]
    /// and the OS grants the thread; returns whether it started.
    fn spawn<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        votes: bool,
        share: usize,
    ) -> bool {
        let slot = self
            .readers
            .fetch_update(Relaxed, Relaxed, |n| (n < QUEUE_DEPTH).then_some(n + 1));
        if slot.is_err() {
            return false;
        }
        let started = thread::Builder::new()
            .name("rsj-scan".into())
            .spawn_scoped(scope, move || self.read(scope, votes, share))
            .is_ok();
        if !started {
            self.readers.fetch_sub(1, Relaxed);
        }
        started
    }

    /// One reader: claims the next page until none is left or the scan
    /// stopped, reads and decodes each, and leaves what it decoded in
    /// `parts`; it expects to decode about `share` pages. A reader that
    /// `votes` times its pages while the scan is undecided; the one whose
    /// vote settles it on "waits" starts the remaining readers before it
    /// reads on.
    fn read<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        mut votes: bool,
        share: usize,
    ) {
        // Sized up front: parts grown by doubling left their outgrown
        // buffers in the readers' heaps, ~0.2 MB more resident after the
        // benchmark's pair open.
        let mut part = Vec::with_capacity(share);
        let mut buf = Vec::new();
        let run = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let claimed = self.next.fetch_add(1, Relaxed);
            if claimed >= self.end {
                return;
            }
            let (file, id) = self.locate(claimed);
            votes &= self.undecided();
            let start = votes.then(Instant::now);
            let read = (self.read_at)(file, id, &mut buf);
            let timed = start.map(|start| (start, Instant::now()));
            match read.and_then(|()| (self.decode)(file, id, &buf)) {
                Ok(value) => part.push((claimed, value)),
                Err(err) => return self.fail(claimed, err),
            }
            if let Some((start, read)) = timed {
                let waited = read - start > read.elapsed() * READ_BOUND;
                if self.vote(waited) {
                    let mut unclaimed = self.end.saturating_sub(self.next.load(Relaxed));
                    let share = unclaimed.div_ceil(QUEUE_DEPTH as u64) as usize;
                    while unclaimed > 0 && self.spawn(scope, false, share) {
                        unclaimed -= 1;
                    }
                }
            }
        }));
        if let Err(payload) = run {
            self.stop();
            let mut panicked = self.panicked.lock().unwrap_or_else(PoisonError::into_inner);
            panicked.get_or_insert(payload);
        }
        self.parts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(part);
    }

    /// The file and page of claim index `claimed`.
    fn locate(&self, claimed: u64) -> (usize, PageId) {
        let file = self.ends.partition_point(|&end| end <= claimed);
        let first = file.checked_sub(1).map_or(0, |f| self.ends[f]);
        (file, PageId((claimed - first) as u32))
    }

    /// Whether neither side of the vote has its count yet.
    fn undecided(&self) -> bool {
        let ballots = self.ballots.load(Relaxed);
        ballots % QUICK < MAJORITY && ballots / QUICK <= VOTES - MAJORITY
    }

    /// Casts one vote; true for the vote that settles the scan on
    /// "waits".
    fn vote(&self, waited: bool) -> bool {
        let before = self
            .ballots
            .fetch_add(if waited { 1 } else { QUICK }, Relaxed);
        waited && before % QUICK + 1 == MAJORITY && before / QUICK <= VOTES - MAJORITY
    }

    /// Stops further claims: every later claim lands at or past `end`.
    fn stop(&self) {
        self.next.fetch_max(self.end, Relaxed);
    }

    /// Records claim `claimed`'s failure, and stops claims.
    fn fail(&self, claimed: u64, err: StorageError) {
        self.stop();
        let mut failure = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
        if failure.as_ref().is_none_or(|&(at, _)| claimed < at) {
            *failure = Some((claimed, err));
        }
    }

    /// Every reader has finished: re-raises a panic, or sorts the parts
    /// into the files wholly before the first failure, then the failure.
    fn finish(self) -> Vec<Result<Vec<T>, StorageError>> {
        if let Some(payload) = self
            .panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        let failure = self
            .failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let done = failure.as_ref().map_or(self.end, |&(at, _)| at);
        // Every claim below `done` succeeded and sits in exactly one
        // part, and each part is ascending: merge.
        let mut parts: Vec<_> = self
            .parts
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        let mut out = Vec::with_capacity(self.ends.len());
        let mut first = 0;
        for &end in self.ends.iter().take_while(|&&end| end <= done) {
            let mut values = Vec::with_capacity((end - first) as usize);
            for claimed in first..end {
                let part = parts
                    .iter_mut()
                    .find(|p| p.as_slice().first().is_some_and(|&(at, _)| at == claimed))
                    .expect("every page is decoded by exactly one reader");
                values.extend(part.next().map(|(_, value)| value));
            }
            out.push(Ok(values));
            first = end;
        }
        out.extend(failure.map(|(_, err)| Err(err)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageSource;
    use crate::temp::demo::demo_file;
    use crate::temp::TempDir;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering::SeqCst};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// A read slow enough that the vote always finds the scan waiting.
    const SLOW: Duration = Duration::from_micros(300);

    /// A one-file `scan_files`: its one entry.
    fn scan_pages<T, R, D>(page_count: u32, read_at: R, decode: D) -> Result<Vec<T>, StorageError>
    where
        T: Send,
        R: Fn(PageId, &mut Vec<u8>) -> Result<(), StorageError> + Sync,
        D: Fn(PageId, &[u8]) -> Result<T, StorageError> + Sync,
    {
        let mut out = scan_files(
            &[page_count],
            |_, id, buf| read_at(id, buf),
            |_, id, bytes| decode(id, bytes),
        );
        assert_eq!(out.len(), 1, "one file, one entry");
        out.pop().unwrap()
    }

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
        let edges = [VOTES, VOTES + QUEUE_DEPTH as u32];
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
    fn no_page_is_read_serially_before_the_readers_start() {
        // Every read is slow, so the scan ends on the queue depth. Before
        // that, on two cores or more, page 1 is read while page 0's read
        // is still running: page 0's read waits for page 1's to start.
        let overlap = cores() >= 2;
        let page_1_started = (Mutex::new(false), std::sync::Condvar::new());
        let met = AtomicBool::new(false);
        scan_pages(
            200,
            |id, buf| {
                let (started, cv) = &page_1_started;
                match id.0 {
                    0 if overlap => {
                        let started = cv
                            .wait_timeout_while(
                                started.lock().unwrap(),
                                Duration::from_secs(10),
                                |s| !*s,
                            )
                            .unwrap()
                            .0;
                        met.store(*started, SeqCst);
                    }
                    1 => {
                        *started.lock().unwrap() = true;
                        cv.notify_all();
                    }
                    _ => {}
                }
                std::thread::sleep(SLOW);
                fill(id, buf);
                Ok(())
            },
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(
            met.load(SeqCst),
            overlap,
            "page 1 was not read during page 0's read"
        );
    }

    #[test]
    fn instant_reads_take_one_reader_per_core() {
        // The vote's other side: decodes far slower than reads.
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

    #[test]
    fn files_are_claimed_first_to_last_and_each_comes_back_in_order() {
        // Empty files between and at the ends; slow and instant reads.
        let counts = [0, 5, 0, 40, 1, 0, 30];
        for read_time in [Duration::ZERO, SLOW] {
            let claims: Mutex<Vec<(ThreadId, usize, u32)>> = Mutex::new(Vec::new());
            let out = scan_files(
                &counts,
                |f, id, buf| {
                    let me = std::thread::current().id();
                    claims.lock().unwrap().push((me, f, id.0));
                    std::thread::sleep(read_time);
                    buf.clear();
                    buf.extend_from_slice(&[f as u8, id.0 as u8]);
                    Ok(())
                },
                |f, id, bytes| {
                    assert_eq!(bytes, [f as u8, id.0 as u8]);
                    Ok((f, id.0))
                },
            );
            let got: Vec<Vec<(usize, u32)>> = out.into_iter().map(Result::unwrap).collect();
            let want: Vec<Vec<(usize, u32)>> = counts
                .iter()
                .enumerate()
                .map(|(f, &n)| (0..n).map(|id| (f, id)).collect())
                .collect();
            assert_eq!(got, want, "{read_time:?}");
            // Each reader's claims ascend through the files in order.
            let claims = claims.into_inner().unwrap();
            assert_eq!(claims.len(), counts.iter().sum::<u32>() as usize);
            let readers: HashSet<ThreadId> = claims.iter().map(|c| c.0).collect();
            for reader in readers {
                let mine: Vec<(usize, u32)> = claims
                    .iter()
                    .filter(|c| c.0 == reader)
                    .map(|&(_, f, id)| (f, id))
                    .collect();
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
            }
        }
    }

    #[test]
    fn an_earlier_files_failure_wins_over_a_sooner_one_in_a_later_file() {
        // File 0 fails at its last page after a long read; file 1 fails
        // at its first page at once. File 0's error is the scan's, with
        // no entry for file 1; when only file 1 fails, file 0 is whole.
        let counts = [60, 60];
        let both = scan_files(
            &counts,
            |f, id, buf| {
                if (f, id.0) == (0, 59) {
                    std::thread::sleep(Duration::from_millis(5));
                    return Err(failure("read", id));
                }
                std::thread::sleep(SLOW);
                fill(id, buf);
                Ok(())
            },
            |f, id, _| match f {
                1 => Err(failure("decode", id)),
                _ => Ok(id.0),
            },
        );
        assert_eq!(both.len(), 1, "no entry after the failed file");
        assert_failed_with(both.into_iter().next().unwrap(), "read", PageId(59));

        let later = scan_files(
            &counts,
            |_, id, buf| {
                fill(id, buf);
                Ok(())
            },
            |f, id, _| match (f, id.0) {
                (1, 7) => Err(failure("decode", id)),
                _ => Ok(id.0),
            },
        );
        let mut later = later.into_iter();
        assert_eq!(later.next().unwrap().unwrap(), (0..60).collect::<Vec<_>>());
        assert_failed_with(later.next().unwrap(), "decode", PageId(7));
        assert!(later.next().is_none());
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
        // A failed read at k, among the first votes, at the vote's end,
        // mid-file and at the last page; every later page's decode fails
        // too, and sooner (its read does not sleep), so an error
        // collected in completion order would name the wrong page.
        for k in [3, VOTES, 57, 99] {
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
        let payload = scan.expect_err("the decode's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("decode gives up"), "{msg:?}");
        // Every reader has been joined: none is still reading, and none
        // starts another page after the scan returned.
        assert_eq!(m.in_flight.load(SeqCst), 0);
        let reads = |m: &Meter| m.reads.iter().map(|c| c.load(SeqCst)).sum::<u32>();
        let after = reads(&m);
        std::thread::sleep(4 * SLOW);
        assert_eq!(reads(&m), after);
        m.assert_each_once(40);
    }

    /// [`scan_sources`] over one page file: its one entry.
    fn scan_file<T: Send>(
        file: &mut dyn PageSource,
        decode: impl Fn(PageId, &[u8]) -> Result<T, StorageError> + Sync,
    ) -> Result<Vec<T>, StorageError> {
        scan_sources(&mut [file], |_, id, bytes| decode(id, bytes))
            .pop()
            .unwrap()
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
            let got = scan_file(&mut file, |_, bytes| Ok(bytes.to_vec())).unwrap();
            assert_eq!(got, want, "latency {latency:?}");
            assert_eq!(file.reads(), 90, "latency {latency:?}");
        }
        // A decode that fails at page 30 was handed page 30, and no page
        // was read twice.
        file.reset_io();
        let res = scan_file(&mut file, |id, _| match id.0 {
            30 => Err(failure("decode", id)),
            _ => Ok(()),
        });
        assert_failed_with(res, "decode", PageId(30));
        assert!((31..=90).contains(&file.reads()), "{} reads", file.reads());
    }

    #[test]
    fn page_file_pair_charges_each_file_its_own_reads() {
        let dir = TempDir::new("scan-pair").unwrap();
        let mut r = demo_file(&dir, "r.rsj", 40);
        let mut s = demo_file(&dir, "s.rsj", 25);
        for latency in [None, Some(SLOW)] {
            r.set_read_latency(latency);
            s.set_read_latency(latency);
            r.reset_io();
            s.reset_io();
            let out = scan_sources(&mut [&mut r, &mut s], |f, id, _| Ok((f, id.0)));
            let lens: Vec<usize> = out.into_iter().map(|p| p.unwrap().len()).collect();
            assert_eq!(lens, [40, 25], "latency {latency:?}");
            assert_eq!((r.reads(), s.reads()), (40, 25), "latency {latency:?}");
        }
    }
}
