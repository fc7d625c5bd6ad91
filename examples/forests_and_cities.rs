//! The paper's motivating query (§1): "find all forests which are in a
//! city" — a spatial join of two region relations — and its windowed
//! variant "for all cities not further away than 100 km from Munich, find
//! all forests which are in a city".
//!
//! Region data plays the role of both relations: one generated map for
//! cities, one for forests. The MBR join is the filter step; exact polygon
//! geometry decides the final answer.
//!
//! ```sh
//! cargo run --release --example forests_and_cities
//! ```

use rsj::prelude::*;

fn main() {
    // Two region maps over the same territory.
    let cities = rsj::datagen::regions::regions(1500, 0xC171);
    let forests = rsj::datagen::regions::regions(2500, 0xF03E);

    let params = RTreeParams::for_page_size(2048);
    let mut city_tree = RTree::new(params);
    for o in &cities {
        city_tree.insert(o.mbr, DataId(o.id));
    }
    let mut forest_tree = RTree::new(params);
    for o in &forests {
        forest_tree.insert(o.mbr, DataId(o.id));
    }

    // Exact geometry lives in object relations, keyed by object id.
    let city_objs = ObjectRelation::build(2048, cities.iter().map(|o| (o.id, o.geometry.clone())));
    let forest_objs =
        ObjectRelation::build(2048, forests.iter().map(|o| (o.id, o.geometry.clone())));

    // "Find all forests which intersect a city": filter (MBR join, SJ4)
    // + refinement (exact polygon intersection).
    let res = id_join(
        &city_tree,
        &forest_tree,
        &city_objs,
        &forest_objs,
        JoinPlan::sj4(),
        &JoinConfig::default(),
    );
    println!(
        "forests x cities: {} candidate MBR pairs -> {} real intersections \
         (filter selectivity {:.2})",
        res.candidates,
        res.pairs.len(),
        res.selectivity()
    );
    println!(
        "filter: {} disk accesses; refinement: {} heap-page accesses",
        res.filter.io.disk_accesses, res.refine_io.disk_accesses
    );

    // The windowed variant: restrict cities to a 100-unit neighbourhood of
    // "Munich" before joining. A window query on the city tree gives the
    // qualifying cities; their forests come from per-city window queries on
    // the forest tree (an index nested loop is the right plan for a small
    // window).
    let munich = Point::new(500.0, 500.0);
    let window = Rect::from_corners(
        munich.x - 100.0,
        munich.y - 100.0,
        munich.x + 100.0,
        munich.y + 100.0,
    );
    let nearby_cities = city_tree.window_query(&window);
    let mut matches = 0usize;
    for cid in &nearby_cities {
        let city_geom = city_objs.peek(cid.0).expect("city must exist");
        let city_mbr = city_geom.mbr();
        for fid in forest_tree.window_query(&city_mbr) {
            let forest_geom = forest_objs.peek(fid.0).expect("forest must exist");
            if city_geom.intersects(forest_geom) {
                matches += 1;
            }
        }
    }
    println!(
        "\nwithin 100 units of Munich ({} cities): {} forest-city intersections",
        nearby_cities.len(),
        matches
    );
}
