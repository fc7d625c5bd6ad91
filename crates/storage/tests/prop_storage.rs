//! Property tests for the storage substrate: the LRU buffer must behave
//! like its reference specification under arbitrary access/pin sequences,
//! and every owner of the buffer hierarchy must charge — and write — alike.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::TestCaseError;
use rsj_storage::codec::slot_bytes_for;
use rsj_storage::{
    Access, BufKey, BufferPool, CacheConfig, LruBuffer, NodeAccessMut, PageFile, PageId,
    PageSource, SharedPageCache, TempDir, UPDATE_MAX_HEIGHT,
};

/// Reference model: a vector ordered MRU-first plus pin counts.
#[derive(Default)]
struct ModelLru {
    cap: usize,
    order: Vec<BufKey>, // MRU first
    pins: std::collections::HashMap<BufKey, u32>,
}

impl ModelLru {
    fn new(cap: usize) -> Self {
        ModelLru {
            cap,
            ..Default::default()
        }
    }

    fn pinned(&self, k: &BufKey) -> bool {
        self.pins.get(k).copied().unwrap_or(0) > 0
    }

    fn trim(&mut self) {
        while self.order.len() > self.cap {
            // Remove the last (LRU) unpinned entry, if any.
            let Some(pos) = self.order.iter().rposition(|k| !self.pinned(k)) else {
                break;
            };
            self.order.remove(pos);
        }
    }

    fn access(&mut self, k: BufKey) -> Access {
        if let Some(pos) = self.order.iter().position(|&x| x == k) {
            self.order.remove(pos);
            self.order.insert(0, k);
            Access::Hit
        } else {
            self.order.insert(0, k);
            self.trim();
            Access::Miss
        }
    }

    fn pin(&mut self, k: BufKey) {
        if !self.order.contains(&k) {
            self.order.insert(0, k);
        }
        *self.pins.entry(k).or_insert(0) += 1;
        self.trim();
    }

    fn unpin(&mut self, k: BufKey) {
        if self.order.contains(&k) {
            if let Some(p) = self.pins.get_mut(&k) {
                *p = p.saturating_sub(1);
            }
            self.trim();
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u32),
    Pin(u32),
    Unpin(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..12).prop_map(Op::Access),
            (0u32..12).prop_map(Op::Pin),
            (0u32..12).prop_map(Op::Unpin),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn lru_matches_reference_model(cap in 0usize..6, ops in arb_ops()) {
        let mut real = LruBuffer::new(cap);
        let mut model = ModelLru::new(cap);
        for op in ops {
            match op {
                Op::Access(n) => {
                    let k = BufKey::new(0, PageId(n));
                    prop_assert_eq!(real.access(k), model.access(k));
                }
                Op::Pin(n) => {
                    let k = BufKey::new(0, PageId(n));
                    real.pin(k);
                    model.pin(k);
                }
                Op::Unpin(n) => {
                    let k = BufKey::new(0, PageId(n));
                    real.unpin(k);
                    model.unpin(k);
                }
            }
            prop_assert_eq!(real.recency_order(), model.order.clone());
        }
    }

    #[test]
    fn resident_set_never_exceeds_cap_plus_pins(cap in 0usize..5, ops in arb_ops()) {
        let mut b = LruBuffer::new(cap);
        let mut pinned = std::collections::HashMap::<u32, i64>::new();
        for op in ops {
            match op {
                Op::Access(n) => {
                    b.access(BufKey::new(0, PageId(n)));
                }
                Op::Pin(n) => {
                    b.pin(BufKey::new(0, PageId(n)));
                    *pinned.entry(n).or_insert(0) += 1;
                }
                Op::Unpin(n) => {
                    let k = BufKey::new(0, PageId(n));
                    if b.is_pinned(k) {
                        b.unpin(k);
                        *pinned.entry(n).or_insert(0) -= 1;
                    }
                }
            }
            let pinned_count = pinned.values().filter(|&&v| v > 0).count();
            prop_assert!(b.len() <= cap.max(pinned_count));
        }
    }

    #[test]
    fn pool_stats_are_consistent(cap in 0usize..8, pages in prop::collection::vec((0u8..2, 0u32..20, 0usize..3), 0..150)) {
        let mut pool = BufferPool::with_capacity_pages(cap, &[3, 3]);
        for (touches, (store, page, level)) in pages.into_iter().enumerate() {
            pool.access(store, PageId(page), level);
            let s = pool.stats();
            prop_assert_eq!(s.total_accesses(), touches as u64 + 1);
        }
    }

    #[test]
    fn bigger_buffer_never_more_disk_accesses(
        trace in prop::collection::vec((0u8..2, 0u32..30, 0usize..3), 1..200),
        small in 0usize..4,
        extra in 1usize..8,
    ) {
        // LRU is a stack algorithm: inclusion property implies monotonicity.
        let mut a = BufferPool::with_capacity_pages(small, &[3, 3]);
        let mut b = BufferPool::with_capacity_pages(small + extra, &[3, 3]);
        for &(s, p, l) in &trace {
            a.access(s, PageId(p), l);
            b.access(s, PageId(p), l);
        }
        prop_assert!(b.stats().disk_accesses <= a.stats().disk_accesses);
    }
}

// ---------------------------------------------------------------------------
// The buffer hierarchy and its write-back protocol, across all its owners.
// ---------------------------------------------------------------------------

/// Pages per store of the hierarchy fixture.
const PAGES: u32 = 8;

/// The bytes version `version` of `store`'s `page` is written with.
fn page_bytes(store: u8, page: u32, version: u32) -> Vec<u8> {
    let mut b = vec![store, page as u8];
    b.extend_from_slice(&version.to_le_bytes());
    b
}

/// One step of a hierarchy script. Write and discard go to the one store
/// that is open for updates.
#[derive(Debug, Clone, Copy)]
enum Step {
    Access { store: u8, page: u32, depth: usize },
    Pin { store: u8, page: u32 },
    Unpin { store: u8, page: u32 },
    Write { page: u32 },
    Discard { page: u32 },
    Flush,
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    let step =
        (0u8..10, 0u8..2, 0u32..PAGES, 0usize..3).prop_map(
            |(kind, store, page, depth)| match kind {
                0..=3 => Step::Access { store, page, depth },
                4 => Step::Pin { store, page },
                5 => Step::Unpin { store, page },
                6 | 7 => Step::Write { page },
                8 => Step::Discard { page },
                _ => Step::Flush,
            },
        );
    prop::collection::vec(step, 0..120)
}

/// Checks that every page of `file` with a live expectation holds it.
fn check_pages(
    file: &mut PageFile,
    store: u8,
    expect: &HashMap<(u8, u32), Option<Vec<u8>>>,
    owner: &str,
) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    for page in 0..PAGES {
        if let Some(want) = &expect[&(store, page)] {
            file.read_page_into(PageId(page), &mut buf).unwrap();
            prop_assert_eq!(
                &buf[..want.len()],
                &want[..],
                "{} store {} page {}",
                owner,
                store,
                page
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One script, both owners of the hierarchy's write path in lock-step
    /// — the `BufferPool` oracle and an update handle of a shared cache:
    /// the same decision and the same whole `IoStats` after every step;
    /// each flush writes every page written and not discarded since the
    /// previous one exactly once; and once flushed, every page of every
    /// file holds the last payload written to it.
    #[test]
    fn every_owner_of_the_hierarchy_charges_and_writes_alike(
        cap in 0usize..=4,
        upd in 0u8..2,
        script in arb_script(),
    ) {
        let dir = TempDir::new("prop-hierarchy").unwrap();
        let slot = slot_bytes_for(2);
        let path = |store: u8| dir.file(&format!("cached{store}.rsj"));
        for store in 0..2u8 {
            let mut cached = PageFile::create(path(store), 1024, slot).unwrap();
            for page in 0..PAGES {
                cached.append_page(&page_bytes(store, page, 0)).unwrap();
            }
            cached.flush().unwrap();
        }

        // An update handle sizes the path buffer of its store for updates;
        // the oracle gets the same heights.
        let mut heights = [3usize, 3];
        heights[upd as usize] = UPDATE_MAX_HEIGHT;
        let mut oracle = BufferPool::with_capacity_pages(cap, &heights);
        // Fewer shared frames than pages, so the physical side evicts too.
        let cache = SharedPageCache::open(
            &[path(0), path(1)],
            3,
            &[3, 3],
            CacheConfig::default(),
        )
        .unwrap();
        let mut cached = cache.update_handle(upd, cap).unwrap();

        // What each page must hold in the end; `None` once a discard
        // declared its content dead.
        let mut expect: HashMap<(u8, u32), Option<Vec<u8>>> = (0..2u8)
            .flat_map(|s| (0..PAGES).map(move |p| ((s, p), Some(page_bytes(s, p, 0)))))
            .collect();
        let mut pins = HashMap::<(u8, u32), u32>::new();
        // Pages written and not discarded since the last flush.
        let mut pending = HashSet::<u32>::new();
        // Every script ends flushed.
        for (at, step) in script.into_iter().chain([Step::Flush]).enumerate() {
            let mut owners: [&mut dyn NodeAccessMut; 2] = [&mut oracle, &mut cached];
            match step {
                Step::Access { store, page, depth } => {
                    let miss = owners.each_mut().map(|o| o.access(store, PageId(page), depth));
                    prop_assert_eq!(miss, [miss[0]; 2], "step {}: {:?}", at, step);
                }
                Step::Pin { store, page } => {
                    *pins.entry((store, page)).or_insert(0) += 1;
                    owners.iter_mut().for_each(|o| o.pin(store, PageId(page)));
                }
                // A well-formed caller releases only pins it holds.
                Step::Unpin { store, page } => {
                    let held = pins.entry((store, page)).or_insert(0);
                    if *held > 0 {
                        *held -= 1;
                        owners.iter_mut().for_each(|o| o.unpin(store, PageId(page)));
                    }
                }
                // Pinned or not: a write waits on no pin.
                Step::Write { page } => {
                    let bytes = page_bytes(upd, page, at as u32 + 1);
                    owners.iter_mut().for_each(|o| o.write(upd, PageId(page)));
                    expect.insert((upd, page), Some(bytes));
                    pending.insert(page);
                }
                Step::Discard { page } => {
                    owners.iter_mut().for_each(|o| o.discard(upd, PageId(page)));
                    expect.insert((upd, page), None);
                    pending.remove(&page);
                }
                Step::Flush => {
                    let before = cache.physical_writes();
                    // The writer's image: a flush asks for each page's
                    // current bytes, once.
                    let mut asked = HashSet::new();
                    let mut encode = |page: PageId, buf: &mut Vec<u8>| {
                        assert!(asked.insert(page), "page {page} encoded twice");
                        *buf = expect[&(upd, page.0)].clone().expect("a discarded page");
                        Ok(())
                    };
                    owners.iter_mut().for_each(|o| o.flush_writes(&mut encode).unwrap());
                    prop_assert_eq!(
                        cache.physical_writes() - before,
                        pending.len() as u64,
                        "one write per page written since the last flush, step {}", at
                    );
                    pending.clear();
                }
            }
            prop_assert_eq!(cached.stats(), oracle.stats(), "step {}: {:?}", at, step);
        }
        prop_assert!(cache.physical_writes() <= cached.stats().page_writes);
        prop_assert_eq!(cache.pending_write_back(), 0);
        drop(cached);

        for store in 0..2u8 {
            let mut file = PageFile::open(path(store)).unwrap();
            check_pages(&mut file, store, &expect, "cache handle")?;
        }
    }
}
