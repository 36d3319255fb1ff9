//! Pair-cache contract tests: every pair's screen and exact scores are
//! cached next to each other, so warm queries run no joins, cold top-k
//! over every handle screens each admissible pair once, the cached
//! screen does not depend on which query came first, and a mutation
//! invalidates only the mutated community's pairs.

use csj_core::{validate_sizes, Community, Similarity};
use csj_engine::{Budget, CommunityHandle, CsjEngine, EngineConfig};

fn lcg(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// Seven communities whose sizes make some pairs inadmissible (4 vs 16)
/// and some equal-sized; small counters so screens shortlist a few.
fn catalog() -> CsjEngine {
    const D: usize = 3;
    let mut rng = lcg(41);
    let mut engine = CsjEngine::new(D, EngineConfig::new(1));
    for (i, len) in [4usize, 4, 5, 6, 8, 10, 16].into_iter().enumerate() {
        let rows: Vec<(u64, Vec<u32>)> = (0..len as u64)
            .map(|u| (u, (0..D).map(|_| rng() % 6).collect()))
            .collect();
        let c = Community::from_rows(format!("c{i}"), D, rows).expect("well-formed");
        engine.register(c).expect("unique names");
    }
    engine
}

fn screen_joins(engine: &CsjEngine) -> u64 {
    engine
        .metrics_snapshot()
        .counter_value("csj_joins_total", &[("method", "ap-minmax")])
}

fn refine_joins(engine: &CsjEngine) -> u64 {
    engine
        .metrics_snapshot()
        .counter_value("csj_joins_total", &[("method", "ex-minmax")])
}

fn admissible(engine: &CsjEngine, x: CommunityHandle, y: CommunityHandle) -> bool {
    let nx = engine.community(x).unwrap().len();
    let ny = engine.community(y).unwrap().len();
    validate_sizes(nx.min(ny), nx.max(ny)).is_ok()
}

/// Admissible unordered pairs, optionally only those touching `only`.
fn admissible_pairs(engine: &CsjEngine, only: Option<CommunityHandle>) -> u64 {
    let handles: Vec<CommunityHandle> = engine.handles().collect();
    let mut n = 0;
    for (i, &x) in handles.iter().enumerate() {
        for &y in &handles[i + 1..] {
            let touches = !only.is_some_and(|m| x != m && y != m);
            if touches && admissible(engine, x, y) {
                n += 1;
            }
        }
    }
    n
}

fn top_k_everywhere(engine: &CsjEngine) -> Vec<Vec<csj_engine::PairScore>> {
    let handles: Vec<CommunityHandle> = engine.handles().collect();
    handles
        .iter()
        .map(|&h| engine.top_k_similar(h, 3).expect("top-k"))
        .collect()
}

fn approx_sweep(engine: &CsjEngine) -> Vec<csj_engine::PairScore> {
    let partial = engine
        .pairs_above_approx_with_budget(0.0, &Budget::unlimited(), None)
        .expect("approx sweep");
    assert!(partial.is_complete());
    partial.value.pairs
}

#[test]
fn warm_top_k_runs_no_joins() {
    let engine = catalog();
    let cold = top_k_everywhere(&engine);
    let (screens, refines) = (screen_joins(&engine), refine_joins(&engine));
    let warm = top_k_everywhere(&engine);
    assert_eq!(warm, cold);
    assert_eq!(screen_joins(&engine), screens, "warm top-k re-screened");
    assert_eq!(refine_joins(&engine), refines, "warm top-k re-refined");
}

#[test]
fn warm_pairs_above_runs_no_joins() {
    for threshold in [0.0, 0.2, 0.5] {
        let engine = catalog();
        let cold = engine.pairs_above(threshold).expect("cold sweep");
        let (screens, refines) = (screen_joins(&engine), refine_joins(&engine));
        let warm = engine.pairs_above(threshold).expect("warm sweep");
        assert_eq!(warm, cold);
        assert_eq!(screen_joins(&engine), screens, "threshold {threshold}");
        assert_eq!(refine_joins(&engine), refines, "threshold {threshold}");
        // The approximate sweep reads the same screen slots.
        approx_sweep(&engine);
        assert_eq!(screen_joins(&engine), screens, "threshold {threshold}");
    }
}

#[test]
fn pairs_above_after_top_k_everywhere_runs_no_screens() {
    let engine = catalog();
    top_k_everywhere(&engine);
    let screens = screen_joins(&engine);
    let swept = engine.pairs_above(0.3).expect("sweep");
    assert_eq!(screen_joins(&engine), screens, "every screen was cached");
    assert_eq!(swept, catalog().pairs_above(0.3).expect("fresh sweep"));
}

#[test]
fn cold_top_k_everywhere_screens_each_admissible_pair_once() {
    let engine = catalog();
    let pairs = admissible_pairs(&engine, None);
    let n = engine.handles().count() as u64;
    assert!(
        pairs > 0 && pairs < n * (n - 1) / 2,
        "catalog mixes both kinds"
    );
    top_k_everywhere(&engine);
    assert_eq!(screen_joins(&engine), pairs);
    // Each admissible pair is screened from both sides: the second side
    // is served from its screen slot.
    assert_eq!(engine.stats().screen_cache_hits, pairs);
}

/// Greedy (Ap) matching depends on which side drives: with `x` as B
/// this pair scores 3/3, with `y` as B 2/3.
fn equal_size_pair() -> (CsjEngine, CommunityHandle, CommunityHandle) {
    let rows = |v: [[u32; 2]; 3]| {
        v.into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r.to_vec()))
            .collect::<Vec<_>>()
    };
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let x = Community::from_rows("x", 2, rows([[4, 1], [4, 0], [2, 4]])).unwrap();
    let y = Community::from_rows("y", 2, rows([[3, 0], [4, 2], [1, 4]])).unwrap();
    let x = engine.register(x).unwrap();
    let y = engine.register(y).unwrap();
    (engine, x, y)
}

fn screened(engine: &CsjEngine, from: CommunityHandle, to: CommunityHandle) -> Similarity {
    let outcome = engine.screen(from, &[to]).expect("screen");
    outcome
        .shortlisted
        .iter()
        .chain(&outcome.rejected)
        .find(|(c, _)| *c == to)
        .map(|&(_, s)| s)
        .expect("the pair was scored")
}

#[test]
fn equal_size_pair_screens_the_same_from_either_side_and_the_sweep() {
    // Fresh engines, so every score here comes from a join.
    let from_x = {
        let (engine, x, y) = equal_size_pair();
        screened(&engine, x, y)
    };
    let from_y = {
        let (engine, x, y) = equal_size_pair();
        screened(&engine, y, x)
    };
    let swept = approx_sweep(&equal_size_pair().0)[0].similarity;
    assert_eq!(
        from_x, from_y,
        "orientation must not depend on the query side"
    );
    assert_eq!(from_x, swept);

    // Through the cache: whichever top-k screens first, the sweep then
    // serves that very score from the screen slot.
    for first_x in [true, false] {
        let (engine, x, y) = equal_size_pair();
        engine
            .top_k_similar(if first_x { x } else { y }, 1)
            .expect("top-k");
        let screens = screen_joins(&engine);
        assert_eq!(approx_sweep(&engine)[0].similarity, swept);
        assert_eq!(screen_joins(&engine), screens, "served from the slot");
    }
}

#[test]
fn mutations_invalidate_only_the_mutated_communitys_screens() {
    for mutation in ["upsert", "remove"] {
        let mut engine = catalog();
        let m = engine.find("c4").expect("registered");
        approx_sweep(&engine);
        let all = admissible_pairs(&engine, None);
        assert_eq!(screen_joins(&engine), all);
        match mutation {
            "upsert" => engine.upsert_user(m, 0, &[5, 5, 5]).unwrap(),
            _ => engine.remove_user(m, 0).unwrap(),
        }
        let (screens, hits) = (screen_joins(&engine), engine.stats().screen_cache_hits);
        approx_sweep(&engine);
        let touching = admissible_pairs(&engine, Some(m));
        assert_eq!(
            screen_joins(&engine) - screens,
            touching,
            "{mutation}: only the mutated community's pairs re-screen"
        );
        assert_eq!(
            engine.stats().screen_cache_hits - hits,
            admissible_pairs(&engine, None) - touching,
            "{mutation}: every other screen stays cached"
        );
    }
}
