//! Tree statistics — the quantities of Table 1.
//!
//! §4 defines the notation: |R|dir and |R|dat are the numbers of directory
//! and data pages, ‖R‖dir and ‖R‖dat the numbers of directory and data
//! entries. Table 1 reports height, |R|dir and |R|dat of the two
//! experimental R\*-trees for page sizes of 1/2/4/8 KByte.

use crate::tree::RTree;

/// Aggregate statistics of one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Height in levels (leaf-only tree: 1).
    pub height: u32,
    /// Number of directory (non-leaf) pages, |R|dir.
    pub dir_pages: usize,
    /// Number of data (leaf) pages, |R|dat.
    pub data_pages: usize,
    /// Number of directory entries, ‖R‖dir.
    pub dir_entries: usize,
    /// Number of data entries, ‖R‖dat.
    pub data_entries: usize,
    /// Pages per level, index 0 = leaf level.
    pub pages_per_level: Vec<usize>,
    /// Average node fill as a fraction of M, across all nodes.
    pub avg_utilization: f64,
}

impl TreeStats {
    /// Total number of pages, |R| = |R|dir + |R|dat.
    pub fn total_pages(&self) -> usize {
        self.dir_pages + self.data_pages
    }
}

impl RTree {
    /// Computes the statistics by one traversal.
    pub fn stats(&self) -> TreeStats {
        let height = self.height();
        let mut pages_per_level = vec![0usize; height as usize];
        let mut dir_entries = 0usize;
        let mut data_entries = 0usize;
        let mut fill_sum = 0.0f64;
        let mut nodes = 0usize;
        self.for_each_node(|_, node| {
            pages_per_level[node.level as usize] += 1;
            if node.is_leaf() {
                data_entries += node.len();
            } else {
                dir_entries += node.len();
            }
            fill_sum += node.len() as f64 / self.params().max_entries as f64;
            nodes += 1;
        });
        TreeStats {
            height,
            dir_pages: pages_per_level[1..].iter().sum(),
            data_pages: pages_per_level[0],
            dir_entries,
            data_entries,
            pages_per_level,
            avg_utilization: if nodes > 0 {
                fill_sum / nodes as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DataId;
    use crate::params::{InsertPolicy, RTreeParams};
    use rsj_geom::Rect;

    #[test]
    fn stats_of_empty_tree() {
        let t = RTree::new(RTreeParams::explicit(160, 8, 3, InsertPolicy::RStar));
        let s = t.stats();
        assert_eq!(s.height, 1);
        assert_eq!(s.dir_pages, 0);
        assert_eq!(s.data_pages, 1);
        assert_eq!(s.data_entries, 0);
        assert_eq!(s.total_pages(), 1);
    }

    #[test]
    fn stats_count_pages_and_entries() {
        let mut t = RTree::new(RTreeParams::explicit(160, 8, 3, InsertPolicy::RStar));
        let n = 200u64;
        for i in 0..n {
            let x = (i % 20) as f64 * 5.0;
            let y = (i / 20) as f64 * 5.0;
            t.insert(Rect::from_corners(x, y, x + 4.0, y + 4.0), DataId(i));
        }
        let s = t.stats();
        assert_eq!(s.data_entries, n as usize);
        assert_eq!(s.height as usize, s.pages_per_level.len());
        assert_eq!(s.total_pages(), t.live_page_count());
        // Directory entries reference every non-root node exactly once.
        assert_eq!(s.dir_entries, s.total_pages() - 1);
        // Every level must be thinner than the one below.
        for w in s.pages_per_level.windows(2) {
            assert!(w[1] < w[0].max(2));
        }
        assert_eq!(
            *s.pages_per_level.last().unwrap(),
            1,
            "root level has one page"
        );
        assert!(s.avg_utilization > 0.3 && s.avg_utilization <= 1.0);
    }

    #[test]
    fn utilization_reflects_fill() {
        // A tree with exactly M entries in a single leaf has utilization 1.
        let mut t = RTree::new(RTreeParams::explicit(160, 8, 3, InsertPolicy::RStar));
        for i in 0..8u64 {
            t.insert(
                Rect::from_corners(i as f64, 0.0, i as f64 + 0.5, 1.0),
                DataId(i),
            );
        }
        let s = t.stats();
        assert_eq!(s.data_pages, 1);
        assert!((s.avg_utilization - 1.0).abs() < 1e-12);
    }
}
