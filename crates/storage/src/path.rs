//! The tree-private path buffer.
//!
//! §4.1: "The R\*-tree makes use of a so-called path buffer accommodating
//! all nodes of the path which was accessed last." The path buffer belongs
//! to the data structure (one per tree), in contrast to the LRU buffer which
//! belongs to the system. During a traversal it holds, per level, the page
//! that was read last, so an immediate re-descent along the same path costs
//! no disk accesses.
//!
//! Levels are counted from the root: the root lives at level 0, leaves at
//! `height - 1`.

use crate::page::PageId;

/// Path-buffer height of a tree opened for updates: an updatable tree can
/// grow past its open-time height (a root split shifts every depth), so
/// its buffer is sized for any height the tree can reach. One bound for
/// every update backend, so their logical charges stay aligned.
pub const UPDATE_MAX_HEIGHT: usize = 64;

/// Per-tree buffer holding the most recently accessed page of every level.
#[derive(Debug, Clone)]
pub struct PathBuffer {
    levels: Vec<Option<PageId>>,
    hits: u64,
}

impl PathBuffer {
    /// Creates a path buffer for a tree of the given height (number of
    /// levels). A height of zero yields an always-missing buffer.
    pub fn new(height: usize) -> Self {
        PathBuffer {
            levels: vec![None; height],
            hits: 0,
        }
    }

    /// Height the buffer was sized for.
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// True if `page` is on the remembered path.
    ///
    /// Membership is checked across all levels rather than at one expected
    /// level: a page id is unique within a tree, so this is exact.
    pub fn contains(&self, page: PageId) -> bool {
        self.levels.contains(&Some(page))
    }

    /// Records that `page` is now the current node of `level`, displacing
    /// the previous occupant. Deeper levels keep their entries — the paper's
    /// buffer holds the *last accessed* path, and when the traversal moves
    /// to a sibling the stale deeper entries are simply overwritten on the
    /// way down.
    pub fn install(&mut self, level: usize, page: PageId) {
        if level < self.levels.len() {
            self.levels[level] = Some(page);
        }
    }

    /// Looks up `page`; on a hit, bumps the hit counter.
    pub fn probe(&mut self, page: PageId) -> bool {
        if self.contains(page) {
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Path-buffer hits recorded so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Forgets the remembered path (e.g. between measured operations).
    pub fn clear(&mut self) {
        self.levels.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_misses() {
        let mut p = PathBuffer::new(3);
        assert!(!p.probe(PageId(0)));
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn install_then_hit() {
        let mut p = PathBuffer::new(3);
        p.install(0, PageId(10));
        p.install(1, PageId(20));
        assert!(p.probe(PageId(10)));
        assert!(p.probe(PageId(20)));
        assert!(!p.probe(PageId(30)));
        assert_eq!(p.hits(), 2);
    }

    #[test]
    fn install_displaces_previous_occupant() {
        let mut p = PathBuffer::new(2);
        p.install(1, PageId(1));
        p.install(1, PageId(2));
        assert!(!p.contains(PageId(1)));
        assert!(p.contains(PageId(2)));
    }

    #[test]
    fn out_of_range_level_is_ignored() {
        let mut p = PathBuffer::new(1);
        p.install(5, PageId(9));
        assert!(!p.contains(PageId(9)));
    }

    #[test]
    fn clear_forgets_path_keeps_hits() {
        let mut p = PathBuffer::new(2);
        p.install(0, PageId(1));
        assert!(p.probe(PageId(1)));
        p.clear();
        assert!(!p.probe(PageId(1)));
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn zero_height_buffer_never_hits() {
        let mut p = PathBuffer::new(0);
        p.install(0, PageId(1));
        assert!(!p.probe(PageId(1)));
    }
}
