//! Line-data generators: streets and rivers/railways.
//!
//! The TIGER/Line maps of the paper's evaluation consist of short line
//! objects: street segments cluster densely inside settlements, while
//! rivers and railway tracks form long chains crossing the map. The
//! generators below reproduce those shapes:
//!
//! * [`streets`] — a Neyman–Scott-style cluster process: town centres are
//!   drawn uniformly, each town contributes a locally grid-aligned mesh of
//!   short segments; a small rural fraction is scattered uniformly.
//! * [`rivers_and_rails_in`] — correlated random walks (meandering for rivers,
//!   nearly straight for railways) cut into per-segment objects.
//!
//! Object sizes are *absolute* (a street block is a street block), while
//! the `_in` variants take an explicit world rectangle. The presets shrink
//! the world with √scale so that object density — and with it join
//! selectivity per object — is preserved at any scale.

use crate::objects::{Geometry, SpatialObject, WORLD};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsj_geom::{Point, Polyline, Rect};

/// Average number of street segments contributed by one town.
const SEGMENTS_PER_TOWN: usize = 400;
/// Fraction of street segments scattered outside towns ("rural roads").
const RURAL_FRACTION: f64 = 0.10;
/// Average number of segments per river/railway chain.
const SEGMENTS_PER_CHAIN: usize = 250;
/// Local street-grid pitch in world units (absolute object scale).
const BLOCK_PITCH_MIN: f64 = 0.35;

fn clamp_point(p: Point, world: &Rect) -> Point {
    Point::new(p.x.clamp(world.xl, world.xu), p.y.clamp(world.yl, world.yu))
}

/// Generates `n` street-segment objects in the default [`WORLD`].
pub fn streets(n: usize, seed: u64) -> Vec<SpatialObject> {
    streets_in(n, seed, &WORLD)
}

/// Generates `n` street-segment objects in `world`.
pub fn streets_in(n: usize, seed: u64, world: &Rect) -> Vec<SpatialObject> {
    streets_paired(n, seed, seed.wrapping_add(0x5151), world)
}

/// Generates streets with *separate* seeds for town placement and segment
/// detail. Two maps generated with the same `town_seed` but different
/// `detail_seed`s share their settlement structure — like two street
/// datasets digitized over the same geography, which is what the paper's
/// street × street tests (B) and (C) join. Two fully independent seeds give
/// nearly disjoint maps and an unrealistically empty join.
pub fn streets_paired(
    n: usize,
    town_seed: u64,
    detail_seed: u64,
    world: &Rect,
) -> Vec<SpatialObject> {
    let mut town_rng = SmallRng::seed_from_u64(
        town_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1),
    );
    let mut rng = SmallRng::seed_from_u64(
        detail_seed
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .wrapping_add(6),
    );
    let mut out = Vec::with_capacity(n);
    let rural = (n as f64 * RURAL_FRACTION) as usize;
    let in_towns = n - rural;
    let towns = (in_towns / SEGMENTS_PER_TOWN).max(1);
    let max_town_radius = (world.width().min(world.height()) * 0.25).clamp(2.0, 50.0);

    'towns: for _ in 0..towns {
        let cx = town_rng.gen_range(world.xl..world.xu);
        let cy = town_rng.gen_range(world.yl..world.yu);
        // Town radius: most towns are small, a few are cities.
        let radius = 2.0 + town_rng.gen_range(0.0..1.0f64).powi(3) * (max_town_radius - 2.0);
        let block = (radius / 14.0).max(BLOCK_PITCH_MIN);
        // Grid phase comes from the *detail* stream: two correlated maps
        // share towns but their street grids are shifted against each other,
        // so they intersect where streets cross rather than being identical.
        let phase_x = rng.gen_range(0.0..block);
        let phase_y = rng.gen_range(0.0..block);
        let quota = in_towns.div_ceil(towns);
        for _ in 0..quota {
            if out.len() >= in_towns {
                break 'towns;
            }
            let u = rng.gen_range(-1.0..1.0f64);
            let v = rng.gen_range(-1.0..1.0f64);
            let gx = cx + u * radius;
            let gy = cy + v * radius;
            // Snap to the local grid and emit one block edge, horizontal or
            // vertical, with slight jitter so MBRs are not all degenerate.
            let sx = ((gx - phase_x) / block).round() * block + phase_x;
            let sy = ((gy - phase_y) / block).round() * block + phase_y;
            let jitter = block * 0.05;
            let (a, b) = if rng.gen_bool(0.5) {
                (
                    Point::new(sx, sy + rng.gen_range(-jitter..jitter)),
                    Point::new(sx + block, sy + rng.gen_range(-jitter..jitter)),
                )
            } else {
                (
                    Point::new(sx + rng.gen_range(-jitter..jitter), sy),
                    Point::new(sx + rng.gen_range(-jitter..jitter), sy + block),
                )
            };
            let line = Polyline::new(vec![clamp_point(a, world), clamp_point(b, world)]);
            out.push(SpatialObject::new(out.len() as u64, Geometry::Line(line)));
        }
    }
    // Rural roads: longer, sparsely scattered segments.
    while out.len() < n {
        let x = rng.gen_range(world.xl..world.xu);
        let y = rng.gen_range(world.yl..world.yu);
        let len = rng.gen_range(0.5..4.0);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let b = Point::new(x + len * angle.cos(), y + len * angle.sin());
        let line = Polyline::new(vec![Point::new(x, y), clamp_point(b, world)]);
        out.push(SpatialObject::new(out.len() as u64, Geometry::Line(line)));
    }
    out
}

/// Generates `n` river/railway segment objects in the default [`WORLD`]
/// (70 % meandering rivers, 30 % straighter railways).
#[cfg(test)]
pub fn rivers_and_rails(n: usize, seed: u64) -> Vec<SpatialObject> {
    rivers_and_rails_in(n, seed, &WORLD)
}

/// Generates `n` river/railway segment objects in `world`.
pub fn rivers_and_rails_in(n: usize, seed: u64, world: &Rect) -> Vec<SpatialObject> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(2));
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let is_river = rng.gen_bool(0.7);
        let chain_len = (SEGMENTS_PER_CHAIN as f64 * rng.gen_range(0.5..1.5)) as usize;
        let mut x = rng.gen_range(world.xl..world.xu);
        let mut y = rng.gen_range(world.yl..world.yu);
        let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
        // Rivers meander; railways run straight with rare bends.
        let wobble = if is_river { 0.45 } else { 0.06 };
        let step = if is_river {
            rng.gen_range(0.6..1.6)
        } else {
            rng.gen_range(1.5..3.0)
        };
        for _ in 0..chain_len {
            if out.len() >= n {
                break;
            }
            heading += rng.gen_range(-wobble..wobble);
            // Each object is a short 3-point chain (one bend), like a TIGER
            // line record.
            let mid_heading = heading + rng.gen_range(-wobble..wobble) * 0.5;
            let p0 = Point::new(x, y);
            let p1 = Point::new(x + step * heading.cos(), y + step * heading.sin());
            let p2 = Point::new(
                p1.x + step * mid_heading.cos(),
                p1.y + step * mid_heading.sin(),
            );
            let p1 = clamp_point(p1, world);
            let p2 = clamp_point(p2, world);
            out.push(SpatialObject::new(
                out.len() as u64,
                Geometry::Line(Polyline::new(vec![p0, p1, p2])),
            ));
            x = p2.x;
            y = p2.y;
            // Bounce off the world boundary.
            if x <= world.xl || x >= world.xu || y <= world.yl || y >= world.yu {
                heading += std::f64::consts::FRAC_PI_2 + rng.gen_range(0.0..1.0);
                x = x.clamp(world.xl, world.xu);
                y = y.clamp(world.yl, world.yu);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streets_produces_exact_count_within_world() {
        for n in [1usize, 10, 500, 2000] {
            let v = streets(n, 9);
            assert_eq!(v.len(), n);
            for o in &v {
                assert!(WORLD.contains(&o.mbr), "{:?} outside world", o.mbr);
            }
        }
    }

    #[test]
    fn rivers_produces_exact_count_within_world() {
        for n in [1usize, 10, 700] {
            let v = rivers_and_rails(n, 9);
            assert_eq!(v.len(), n);
            for o in &v {
                assert!(WORLD.contains(&o.mbr));
            }
        }
    }

    #[test]
    fn small_world_variant_respects_bounds() {
        let world = Rect::from_corners(0.0, 0.0, 50.0, 50.0);
        for o in streets_in(800, 4, &world) {
            assert!(world.contains(&o.mbr));
        }
        for o in rivers_and_rails_in(800, 4, &world) {
            assert!(world.contains(&o.mbr));
        }
    }

    #[test]
    fn street_segments_are_short() {
        let v = streets(2000, 5);
        let mean_diag: f64 = v
            .iter()
            .map(|o| (o.mbr.width().powi(2) + o.mbr.height().powi(2)).sqrt())
            .sum::<f64>()
            / v.len() as f64;
        assert!(mean_diag < 10.0, "street MBRs too large: {mean_diag}");
    }

    #[test]
    fn streets_are_clustered() {
        // Clustering proxy: the fraction of 16x16 occupancy cells holding
        // 80 % of the segments must be small.
        let v = streets(4000, 11);
        let mut cells = vec![0usize; 16 * 16];
        for o in &v {
            let c = o.mbr.center();
            let gx = ((c.x - WORLD.xl) / (WORLD.width() / 16.0)).min(15.0) as usize;
            let gy = ((c.y - WORLD.yl) / (WORLD.height() / 16.0)).min(15.0) as usize;
            cells[gy * 16 + gx] += 1;
        }
        cells.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0usize;
        let mut needed = 0usize;
        for &c in &cells {
            acc += c;
            needed += 1;
            if acc * 10 >= v.len() * 8 {
                break;
            }
        }
        assert!(
            needed <= 96,
            "streets look uniform: 80 % of mass needs {needed}/256 cells"
        );
    }

    #[test]
    fn river_chains_are_spatially_coherent() {
        let v = rivers_and_rails(600, 3);
        // Consecutive objects of one chain touch: the end of object i is the
        // start of object i+1, so their MBRs intersect (chain breaks occur
        // only every SEGMENTS_PER_CHAIN objects).
        let touching = v
            .windows(2)
            .filter(|w| w[0].mbr.intersects(&w[1].mbr))
            .count();
        assert!(
            touching * 10 >= (v.len() - 1) * 8,
            "chains broken: {touching}"
        );
    }

    #[test]
    fn geometry_vertex_counts() {
        for o in streets(100, 1) {
            match &o.geometry {
                Geometry::Line(l) => assert_eq!(l.points().len(), 2),
                _ => panic!("streets must be lines"),
            }
        }
        for o in rivers_and_rails(100, 1) {
            match &o.geometry {
                Geometry::Line(l) => assert_eq!(l.points().len(), 3),
                _ => panic!("rivers must be lines"),
            }
        }
    }
}
