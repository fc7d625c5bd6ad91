//! Cross-algorithm equivalence: every join strategy in the stack — SJ1–SJ5,
//! the nested-loop and index-nested-loop baselines, the parallel join,
//! and the streaming cursor consumed incrementally — must produce the
//! identical result-pair set on generated presets.

mod common;

use common::build_tree;
use rsj::prelude::*;
use rsj_core::baseline;
use rsj_core::exec::{recursive_spatial_join, JoinCursor};
use rsj_storage::BufferPool;

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

fn ids(pairs: &[(DataId, DataId)]) -> Vec<(u64, u64)> {
    sorted(pairs.iter().map(|&(a, b)| (a.0, b.0)).collect())
}

#[test]
fn all_strategies_agree_on_presets() {
    // Two presets with different object shapes: lines × lines (A) and the
    // heavily overlapping regions (E).
    for test in [TestId::A, TestId::E] {
        let data = rsj::datagen::preset(test, 0.004);
        let r = build_tree(&data.r, 1024);
        let s = build_tree(&data.s, 1024);
        let cfg = JoinConfig::default();

        // Ground truth: the brute-force nested loop over the raw MBRs.
        let items_r = rsj::datagen::mbr_items(&data.r);
        let items_s = rsj::datagen::mbr_items(&data.s);
        let (nl_pairs, _) = baseline::nested_loop_join(&items_r, &items_s);
        let want = sorted(nl_pairs);
        assert!(!want.is_empty(), "{test:?}: fixture must produce pairs");

        // The five named plans of the paper.
        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
            JoinPlan::sj5(),
        ] {
            let res = spatial_join(&r, &s, plan, &cfg);
            assert_eq!(ids(&res.pairs), want, "{test:?}: {}", plan.name());
        }

        // Index nested-loop baseline.
        let (inl_pairs, _) = baseline::index_nested_loop_join(&r, &s, &cfg);
        assert_eq!(ids(&inl_pairs), want, "{test:?}: index nested loop");

        // The parallel (shared-nothing) join.
        let res = parallel_spatial_join::<CmpCounter, _>(
            &r,
            &s,
            JoinPlan::sj4(),
            cfg.collect_pairs,
            4,
            |_, n| JoinConfig::with_buffer(cfg.buffer_bytes / n).buffer_pool(&[&r, &s]),
        );
        assert_eq!(ids(&res.pairs), want, "{test:?}: parallel");

        // The batched different-height policy (the default §4.4 policy):
        // its sort-and-group window construction must leave the result
        // *and the full cost accounting* exactly where the recursive
        // oracle puts them. Joining the taller tree against a coarser
        // 4-KByte-page copy forces directory × leaf pairs.
        {
            let sparse: Vec<_> = data.s.iter().step_by(40).cloned().collect();
            let s_short = build_tree(&sparse, 1024);
            assert!(
                r.height() > s_short.height(),
                "{test:?}: fixture must give different heights"
            );
            let plan = JoinPlan {
                diff_height: DiffHeightPolicy::Batched,
                ..JoinPlan::sj4()
            };
            let cfg_small = JoinConfig::with_buffer(8 * 1024);
            let batched = spatial_join(&r, &s_short, plan, &cfg_small);
            let items_sparse = rsj::datagen::mbr_items(&sparse);
            let (nl_sparse, _) = baseline::nested_loop_join(&items_r, &items_sparse);
            assert_eq!(
                ids(&batched.pairs),
                sorted(nl_sparse),
                "{test:?}: batched policy result"
            );
            let oracle = recursive_spatial_join(&r, &s_short, plan, &cfg_small);
            assert_eq!(
                batched.stats, oracle.stats,
                "{test:?}: batched-policy stats changed"
            );
        }

        // The streaming cursor, consumed pair by pair.
        let pool = BufferPool::new(
            cfg.buffer_bytes,
            1024,
            &[r.height() as usize, s.height() as usize],
        );
        let mut cursor = JoinCursor::new(&r, &s, JoinPlan::sj4(), pool);
        let mut streamed = Vec::new();
        for (a, b) in &mut cursor {
            streamed.push((a.0, b.0));
        }
        assert_eq!(sorted(streamed), want, "{test:?}: streaming cursor");
        assert_eq!(cursor.stats().result_pairs as usize, want.len());
    }
}
