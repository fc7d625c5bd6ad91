//! The paper's execution-time estimate.
//!
//! §4.1: "we have estimated the execution time of the spatial join charging
//! 1.5·10⁻² seconds for positioning the disk arm, 5·10⁻³ seconds for
//! transferring 1 KByte of data from disk and, 3.9·10⁻⁶ seconds for a
//! floating point comparison (including necessary overhead)." The same
//! constants are reused for Figure 8/9 in §5.
//!
//! The model is linear, so total time decomposes into an I/O part
//! (positioning + transfer per access) and a CPU part (per comparison); the
//! paper's Figures 2 and 8 plot exactly this decomposition.

/// Cost constants of the paper's HP 720 testbed, overridable for
/// sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds to position the disk arm for one page access.
    pub positioning_s: f64,
    /// Seconds to transfer one KByte from disk.
    pub transfer_s_per_kbyte: f64,
    /// Seconds per floating-point comparison (including overhead).
    pub comparison_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            positioning_s: 1.5e-2,
            transfer_s_per_kbyte: 5e-3,
            comparison_s: 3.9e-6,
        }
    }
}

impl CostModel {
    /// I/O time for `disk_accesses` fetches of pages of `page_bytes` bytes.
    pub fn io_time(&self, disk_accesses: u64, page_bytes: usize) -> f64 {
        let per_access =
            self.positioning_s + self.transfer_s_per_kbyte * (page_bytes as f64 / 1024.0);
        disk_accesses as f64 * per_access
    }

    /// CPU time for `comparisons` floating-point comparisons.
    pub fn cpu_time(&self, comparisons: u64) -> f64 {
        comparisons as f64 * self.comparison_s
    }

    /// Fraction of the total spent on I/O, in `[0, 1]`; `None` when both
    /// parts are zero. Figure 2 (lower diagram) plots this split.
    pub fn io_fraction(
        &self,
        disk_accesses: u64,
        page_bytes: usize,
        comparisons: u64,
    ) -> Option<f64> {
        let io = self.io_time(disk_accesses, page_bytes);
        let total = io + self.cpu_time(comparisons);
        (total > 0.0).then(|| io / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_by_default() {
        let m = CostModel::default();
        assert_eq!(m.positioning_s, 0.015);
        assert_eq!(m.transfer_s_per_kbyte, 0.005);
        assert_eq!(m.comparison_s, 3.9e-6);
    }

    #[test]
    fn io_time_scales_with_page_size() {
        let m = CostModel::default();
        // 1 KByte page: 15 ms + 5 ms = 20 ms per access.
        assert!((m.io_time(1, 1024) - 0.020).abs() < 1e-12);
        // 8 KByte page: 15 ms + 40 ms = 55 ms per access.
        assert!((m.io_time(1, 8192) - 0.055).abs() < 1e-12);
        assert!((m.io_time(100, 1024) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_time_scales_with_comparisons() {
        let m = CostModel::default();
        assert!((m.cpu_time(1_000_000) - 3.9).abs() < 1e-9);
    }

    #[test]
    fn table2_scale_sanity() {
        // SJ1 at 1 KByte pages, no buffer: 24,727 accesses and 33.6M
        // comparisons give roughly 495 s I/O and 131 s CPU — the paper's
        // Figure 2 shows the join slightly I/O-bound at this setting.
        let m = CostModel::default();
        let io = m.io_time(24_727, 1024);
        let cpu = m.cpu_time(33_566_961);
        assert!(io > cpu);
        let frac = m.io_fraction(24_727, 1024, 33_566_961).unwrap();
        assert!(frac > 0.5 && frac < 0.9);
    }

    #[test]
    fn io_fraction_edge_cases() {
        let m = CostModel::default();
        assert_eq!(m.io_fraction(0, 1024, 0), None);
        assert_eq!(m.io_fraction(1, 1024, 0), Some(1.0));
        assert_eq!(m.io_fraction(0, 1024, 10), Some(0.0));
    }
}
