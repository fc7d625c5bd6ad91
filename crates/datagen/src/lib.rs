//! Deterministic synthetic spatial workloads.
//!
//! The paper's evaluation joins real cartographic maps: TIGER/Line files of
//! California (streets; rivers and railway tracks) and the EU "Regions"
//! dataset (§4, §5, Table 8). Those files are not distributable here, so
//! this crate generates seeded synthetic stand-ins that preserve the
//! properties the join algorithms are sensitive to:
//!
//! * **streets** — short, mostly axis-aligned segments, heavily clustered
//!   into "towns" with a sparse rural background: small MBRs, strong spatial
//!   clustering, moderate join selectivity;
//! * **rivers & railways** — long correlated random walks cut into segment
//!   objects: slightly larger, elongated MBRs that cross street clusters;
//! * **regions** — overlapping polygonal cells: much larger MBRs with heavy
//!   overlap, giving the high selectivity of the paper's test (E).
//!
//! All generators take an explicit seed and are deterministic across runs
//! and platforms. [`presets`] wires them into the paper's tests (A)–(E) at
//! the original cardinalities, with a `scale` knob for quick runs;
//! [`scenarios`] adds the large-scale skewed/clustered workloads the bulk
//! build experiments run on.

pub mod lines;
pub mod objects;
pub mod presets;
pub mod regions;
pub mod scenarios;
pub mod synthetic;

pub use objects::{mbr_items, Geometry, SpatialObject, WORLD};
pub use presets::{preset, PresetData, TestId};
pub use scenarios::{scenario, Scenario, ScenarioData, SCENARIO_FULL_CARDINALITY};

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts intersecting MBR pairs by brute force (small inputs only).
    pub(crate) fn brute_force_pairs(a: &[SpatialObject], b: &[SpatialObject]) -> usize {
        let mut n = 0;
        for x in a {
            for y in b {
                if x.mbr.intersects(&y.mbr) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn generators_are_deterministic() {
        let a = lines::streets(500, 42);
        let b = lines::streets(500, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mbr, y.mbr);
        }
        let c = lines::streets(500, 43);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.mbr != y.mbr),
            "different seeds differ"
        );
    }

    #[test]
    fn join_selectivity_bands() {
        // Presets shrink the world with the scale, so the per-object
        // intersection rate at 1/100 scale should sit in the regime of the
        // paper's full-scale Table 8: order 0.1..5 per street for test (A)
        // and an order of magnitude more for the region test (E).
        let a = preset(TestId::A, 0.01);
        let line_pairs = brute_force_pairs(&a.r, &a.s);
        let per_obj = line_pairs as f64 / a.r.len() as f64;
        assert!(
            per_obj > 0.05 && per_obj < 10.0,
            "streets x rivers rate {per_obj}"
        );

        let e = preset(TestId::E, 0.01);
        let region_pairs = brute_force_pairs(&e.r, &e.s);
        let per_reg = region_pairs as f64 / e.s.len() as f64;
        assert!(
            per_reg > 2.0,
            "regions should overlap heavily, got {per_reg}"
        );
        assert!(per_reg > per_obj, "regions denser than lines");
    }
}
