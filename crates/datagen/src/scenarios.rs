//! Large-scale synthetic scenarios beyond the paper's test suite.
//!
//! The paper's tests (A)–(E) top out around 6 × 10⁵ objects and model real
//! California maps. The scale experiments (ROADMAP: 10⁶+-rectangle builds,
//! skewed data) need workloads the map generators do not produce:
//! massively *skewed* cluster populations and deliberately *over-dense*
//! regions. These scenarios wire the Neyman–Scott
//! [`clustered_rects`](crate::synthetic::clustered_rects) process into two
//! named, seeded, deterministic presets that scale the same way the paper
//! presets do (a `scale` factor on cardinality) and plug into the same
//! `(mbr, id)` pipeline as tests A/B.
//!
//! * [`Scenario::SkewedClusters`] — heavy-skew cluster sizes: a few huge
//!   metropolitan clusters hold most of the mass, a long tail of small
//!   clusters and a thin uniform background hold the rest. Stress-tests
//!   packing and join behaviour under the non-uniformity the paper points
//!   out real data always has.
//! * [`Scenario::OverlapStress`] — high-overlap stress: both relations are
//!   tightly clustered with fat rectangles, so intersection counts per
//!   object are far above the map presets; the refinement and dedup paths
//!   dominate.

use crate::objects::SpatialObject;
use crate::synthetic::{clustered_rects, uniform_rects};

/// Full-scale cardinality of one scenario relation (`scale = 1.0`).
pub const SCENARIO_FULL_CARDINALITY: usize = 1_000_000;

/// Identifies one of the large-scale synthetic scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Heavy-skew cluster populations (few huge clusters, long tail).
    SkewedClusters,
    /// Over-dense clusters of fat rectangles in both relations.
    OverlapStress,
}

impl Scenario {
    /// Both scenarios, in declaration order.
    pub const ALL: [Scenario; 2] = [Scenario::SkewedClusters, Scenario::OverlapStress];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::SkewedClusters => "skewed_clusters",
            Scenario::OverlapStress => "overlap_stress",
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The two generated relations of a scenario, mirroring
/// [`PresetData`](crate::presets::PresetData).
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// Which scenario this is.
    pub scenario: Scenario,
    /// Relation R.
    pub r: Vec<SpatialObject>,
    /// Relation S.
    pub s: Vec<SpatialObject>,
}

/// Generates `scenario` at `scale` (1.0 = 10⁶ rectangles per relation).
/// Seeds are fixed per scenario and relation: every run sees the same data.
pub fn scenario(scenario: Scenario, scale: f64) -> ScenarioData {
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let n = ((SCENARIO_FULL_CARDINALITY as f64 * scale) as usize).max(1);
    let (r, s) = match scenario {
        Scenario::SkewedClusters => (
            skewed_clustered(n, 0xB0),
            // The probe side is uniform: the skew lives entirely in R, so
            // any asymmetry the join shows is attributable to it.
            uniform_rects(n, 4.0, 0xB8),
        ),
        Scenario::OverlapStress => {
            // One Neyman–Scott draw of 2n fat rectangles split even/odd
            // into the two relations: R and S share the exact cluster
            // structure (same parents, interleaved offspring), so every
            // dense region is dense in *both* relations and cross-relation
            // intersections pile up. Cluster count grows with n to keep
            // per-cluster density roughly scale-invariant.
            let clusters = (n / 5_000).max(4);
            split_even_odd(clustered_rects(2 * n, clusters, 25.0, 8.0, 0xC0))
        }
    };
    ScenarioData { scenario, r, s }
}

/// Splits one generated relation into two by index parity, re-numbering
/// each half densely from zero.
fn split_even_odd(both: Vec<SpatialObject>) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    let mut r = Vec::with_capacity(both.len() / 2 + 1);
    let mut s = Vec::with_capacity(both.len() / 2 + 1);
    for (i, mut o) in both.into_iter().enumerate() {
        let half = if i % 2 == 0 { &mut r } else { &mut s };
        o.id = half.len() as u64;
        half.push(o);
    }
    (r, s)
}

/// Heavy-skew cluster populations built by tiering the Neyman–Scott
/// process: each tier reuses [`clustered_rects`] with a fixed share of the
/// mass over an order of magnitude more clusters, plus a thin uniform
/// background. With the default shares, the three biggest clusters hold
/// over half of all rectangles.
fn skewed_clustered(n: usize, seed: u64) -> Vec<SpatialObject> {
    // (mass share, cluster count, spread): a handful of huge dense
    // metros, a mid tier, a long tail of hamlets.
    const TIERS: [(f64, usize, f64); 3] = [(0.55, 3, 8.0), (0.25, 24, 12.0), (0.12, 200, 18.0)];
    let mut out: Vec<SpatialObject> = Vec::with_capacity(n);
    for (t, &(share, clusters, spread)) in TIERS.iter().enumerate() {
        let tier_n = ((n as f64 * share) as usize).min(n - out.len());
        out.extend(clustered_rects(
            tier_n,
            clusters,
            spread,
            4.0,
            seed + t as u64,
        ));
    }
    // Whatever mass is left becomes uniform background noise.
    out.extend(uniform_rects(n - out.len(), 4.0, seed + 7));
    // The tiers each numbered their objects from zero; re-id globally so
    // the relation has unique ids like every other generator's output.
    for (i, o) in out.iter_mut().enumerate() {
        o.id = i as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::WORLD;

    #[test]
    fn scenarios_are_deterministic() {
        for sc in Scenario::ALL {
            let a = scenario(sc, 0.002);
            let b = scenario(sc, 0.002);
            assert_eq!(a.r, b.r, "{sc}: relation R not deterministic");
            assert_eq!(a.s, b.s, "{sc}: relation S not deterministic");
        }
    }

    #[test]
    fn scenarios_scale_and_stay_in_world() {
        for sc in Scenario::ALL {
            let d = scenario(sc, 0.001);
            assert_eq!(d.r.len(), 1000, "{sc}");
            assert_eq!(d.s.len(), 1000, "{sc}");
            for o in d.r.iter().chain(&d.s) {
                assert!(WORLD.contains(&o.mbr), "{sc}: object escapes the world");
            }
        }
    }

    #[test]
    fn ids_are_unique_and_dense() {
        for sc in Scenario::ALL {
            let d = scenario(sc, 0.003);
            let mut ids: Vec<u64> = d.r.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..d.r.len() as u64).collect::<Vec<_>>(), "{sc}");
        }
    }

    #[test]
    fn skewed_clusters_concentrates_mass() {
        // More than half of R falls inside the three tier-0 cluster
        // neighbourhoods: lots of rectangles within a small total area.
        let d = scenario(Scenario::SkewedClusters, 0.005);
        let n = d.r.len() as f64;
        // Count rectangles whose centre has at least 100 neighbours within
        // radius 10 — only the huge clusters are that dense at this scale.
        let centers: Vec<(f64, f64)> =
            d.r.iter()
                .map(|o| {
                    let c = o.mbr.center();
                    (c.x, c.y)
                })
                .collect();
        let dense = centers
            .iter()
            .filter(|&&(x, y)| {
                centers
                    .iter()
                    .filter(|&&(ox, oy)| {
                        let (dx, dy) = (x - ox, y - oy);
                        dx * dx + dy * dy <= 100.0
                    })
                    .count()
                    > 100
            })
            .count();
        assert!(
            dense as f64 > n * 0.4,
            "expected heavy clustering, got {dense}/{n} dense points"
        );
    }

    #[test]
    fn overlap_stress_outpairs_the_paper_presets() {
        let d = scenario(Scenario::OverlapStress, 0.001);
        let pairs =
            d.r.iter()
                .map(|a| d.s.iter().filter(|b| a.mbr.intersects(&b.mbr)).count())
                .sum::<usize>();
        // Several intersections per R object on average even at 1/1000
        // scale (the world does not shrink with the scale, so absolute
        // density — and this bound — only grows toward full scale).
        assert!(pairs > d.r.len() * 2, "only {pairs} pairs");
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        let _ = scenario(Scenario::SkewedClusters, 0.0);
    }
}
