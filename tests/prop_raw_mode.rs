//! Property tests for the raw (`NoOp`-metered) execution mode: on the
//! generated presets, compiling the comparison accounting out must never
//! change *what* a join computes — only what it reports. The raw join's
//! result-pair multiset must equal the counted join's for every named
//! plan, for the parallel deployment and for the multi-way join.

mod common;

use common::build_tree;
use proptest::prelude::*;
use rsj::prelude::*;

/// Result pairs as a sorted multiset of id pairs.
fn multiset(pairs: &[(DataId, DataId)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Raw mode computes the exact counted result on presets A and B, for
    /// SJ1–SJ5 sequentially and SJ4 in parallel.
    #[test]
    fn raw_mode_matches_counted_multiset(
        which in 0usize..2,
        scale in 0.002..0.005f64,
        buf_pages in 0usize..32,
    ) {
        let test = if which == 0 { TestId::A } else { TestId::B };
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r, 1024);
        let s = build_tree(&data.s, 1024);
        let cfg = JoinConfig::with_buffer(buf_pages * 1024);

        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
            JoinPlan::sj5(),
        ] {
            let counted = spatial_join(&r, &s, plan, &cfg);
            let (raw, _) = RawJoinCursor::raw(&r, &s, plan, cfg.buffer_pool(&[&r, &s]))
                .into_result(cfg.collect_pairs);
            prop_assert_eq!(
                multiset(&raw.pairs),
                multiset(&counted.pairs),
                "{:?} {} raw != counted", test, plan.name()
            );
            prop_assert_eq!(raw.stats.result_pairs, counted.stats.result_pairs);
            // The whole point of the NoOp meter: nothing gets tallied.
            prop_assert_eq!(raw.stats.join_comparisons, 0u64);
            prop_assert_eq!(raw.stats.sort_comparisons, 0u64);
            prop_assert!(counted.stats.join_comparisons > 0);
        }

        // The parallel join, counted and raw, agrees with the sequential
        // counted join.
        let want = multiset(&spatial_join(&r, &s, JoinPlan::sj4(), &cfg).pairs);
        let pool = |_, n| JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[&r, &s]);
        let collect = cfg.collect_pairs;
        let counted_par =
            parallel_spatial_join::<CmpCounter, _>(&r, &s, JoinPlan::sj4(), collect, 4, pool);
        let raw_par = parallel_spatial_join::<NoOp, _>(&r, &s, JoinPlan::sj4(), collect, 4, pool);
        prop_assert_eq!(multiset(&counted_par.pairs), want.clone(), "{:?} counted parallel", test);
        prop_assert_eq!(multiset(&raw_par.pairs), want, "{:?} raw parallel", test);
        prop_assert_eq!(raw_par.stats.join_comparisons, 0u64);
    }

    /// Raw mode computes the counted three-way join's tuples (streets of
    /// preset A × its rivers × the second street map of preset B) with the
    /// same page accesses, and tallies no comparison.
    #[test]
    fn raw_multiway_matches_counted_multiset(
        scale in 0.002..0.005f64,
        buf_pages in 0usize..32,
    ) {
        let a = rsj::datagen::preset(TestId::A, scale);
        let b = rsj::datagen::preset(TestId::B, scale);
        let trees = [
            build_tree(&a.r, 1024),
            build_tree(&a.s, 1024),
            build_tree(&b.s, 1024),
        ];
        let trees: Vec<&RTree> = trees.iter().collect();
        let cfg = JoinConfig::with_buffer(buf_pages * 1024);
        let tuples = |res: &MultiwayResult| {
            let mut v: Vec<Vec<u64>> =
                res.tuples.iter().map(|t| t.iter().map(|d| d.0).collect()).collect();
            v.sort_unstable();
            v
        };

        let pool = |_, t: &[&RTree]| cfg.buffer_pool(t);
        let counted = multiway_join::<CmpCounter, _>(&trees, JoinPlan::sj4(), pool);
        let raw = multiway_join::<NoOp, _>(&trees, JoinPlan::sj4(), pool);
        prop_assert!(!counted.tuples.is_empty());
        prop_assert_eq!(tuples(&raw), tuples(&counted), "raw multiway != counted");
        prop_assert_eq!(raw.io, counted.io);
        prop_assert_eq!(raw.comparisons, 0u64);
        prop_assert!(counted.comparisons > 0);
    }
}
