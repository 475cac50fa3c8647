//! Property tests for the coded estimate cache: a [`CateWalk`] names an
//! intervention by its predicate codes, [`CateEngine::cate`] by its
//! pattern, and both must reach the same entries of the one estimate
//! cache with the same answers — over random frames of categorical, int
//! and bool columns and patterns that mix `=` with `≠`, `<` and `≥`,
//! including patterns longer than the inline key holds.

use faircap::causal::{CateEngine, Dag, Estimate, EstimatorKind, GroupHandle};
use faircap::table::{CacheCounters, CmpOp, DataFrame, Mask, Pattern, Predicate, Value};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const ROWS: usize = 90;
const LEVELS: [&str; 3] = ["a", "b", "c"];

/// A frame with a categorical, an int and a bool treatment column and a
/// float outcome that depends on all three.
fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    (
        prop::collection::vec(0usize..3, ROWS),
        prop::collection::vec(0i64..4, ROWS),
        prop::collection::vec(any::<bool>(), ROWS),
        prop::collection::vec(-1.0f64..1.0, ROWS),
    )
        .prop_map(|(cat, int, flag, noise)| {
            let c: Vec<&str> = cat.iter().map(|&i| LEVELS[i]).collect();
            let o: Vec<f64> = (0..ROWS)
                .map(|r| {
                    10.0 + 3.0 * cat[r] as f64
                        + 2.0 * int[r] as f64
                        + if flag[r] { 4.0 } else { 0.0 }
                        + noise[r]
                })
                .collect();
            DataFrame::builder()
                .cat("c", &c)
                .int("i", int)
                .bool("b", flag)
                .float("o", o)
                .build()
                .unwrap()
        })
}

/// The predicates patterns are drawn from: equalities and non-equality
/// comparisons on every treatment column.
fn predicate_pool() -> Vec<Predicate> {
    vec![
        Predicate::eq("c", Value::from("a")),
        Predicate::ne("c", Value::from("b")),
        Predicate::eq("i", Value::Int(1)),
        Predicate::new("i", CmpOp::Ge, Value::Int(2)),
        Predicate::new("i", CmpOp::Lt, Value::Int(3)),
        Predicate::eq("b", Value::Bool(true)),
        Predicate::ne("b", Value::Bool(true)),
    ]
}

/// `b = true`, which every frame can estimate, then patterns of one to
/// five predicates from the pool (duplicates collapse).
fn patterns_strategy() -> impl Strategy<Value = Vec<Pattern>> {
    prop::collection::vec(prop::collection::vec(0usize..7, 1..6), 3..7).prop_map(|picks| {
        let pool = predicate_pool();
        let drawn = picks
            .into_iter()
            .map(|pick| Pattern::new(pick.into_iter().map(|i| pool[i].clone()).collect()));
        std::iter::once(Pattern::of_eq(&[("b", Value::Bool(true))]))
            .chain(drawn)
            .collect()
    })
}

fn engine(df: &Arc<DataFrame>) -> CateEngine {
    let dag = Dag::parse_edge_list("c -> o\ni -> o\nb -> o\nc -> b").unwrap();
    CateEngine::new(Arc::clone(df), Arc::new(dag), "o").unwrap()
}

type Bits = Option<([u64; 4], usize, usize)>;

fn bits(e: Option<Estimate>) -> Bits {
    e.map(|e| {
        let fields = [e.cate, e.std_err, e.t_stat, e.p_value].map(f64::to_bits);
        (fields, e.n_treated, e.n_control)
    })
}

/// The whole frame, a random subset, and the rows with `c = a`.
fn groups(df: &DataFrame, subset: &[bool]) -> Vec<Mask> {
    let c_a = Pattern::of_eq(&[("c", Value::from("a"))])
        .coverage(df)
        .unwrap();
    vec![Mask::ones(df.n_rows()), Mask::from_bools(subset), c_a]
}

/// Ask `engine` every `(group, pattern)` query: through one walk per
/// group when `by_walk(index)` says so, through `CateEngine::cate`
/// otherwise.
fn ask(
    engine: &CateEngine,
    groups: &[Mask],
    patterns: &[Pattern],
    by_walk: impl Fn(usize) -> bool,
) -> Vec<Bits> {
    let kind = EstimatorKind::Linear;
    let query = engine.with_estimator(&kind);
    let mut answers = Vec::new();
    for g in groups {
        let mut walk = query.walk();
        for p in patterns {
            let index = answers.len();
            let answer = if by_walk(index) {
                let treated = p.coverage(engine.df()).unwrap();
                let codes = engine.pattern_codes(p);
                walk.cate(GroupHandle::new(g), codes, &treated)
            } else {
                engine.cate(g, p, &kind)
            };
            answers.push(bits(answer));
        }
    }
    answers
}

/// Distinct `(group rows, pattern)` keys among the queries.
fn distinct_keys(groups: &[Mask], patterns: &[Pattern]) -> usize {
    let keys: HashSet<(Vec<usize>, &Pattern)> = groups
        .iter()
        .flat_map(|g| patterns.iter().map(move |p| (g.to_indices(), p)))
        .collect();
    keys.len()
}

fn counts(c: CacheCounters) -> (u64, u64, usize, u64) {
    (c.hits, c.misses, c.entries, c.evictions)
}

proptest! {
    /// Walk and pattern answers agree bit for bit; an entry either path
    /// inserts is a hit for the other; the books are exact; and a fresh
    /// engine warmed from an export re-walks with zero misses and exports
    /// the same records.
    #[test]
    fn walks_and_pattern_queries_share_one_coded_cache(
        df in frame_strategy(),
        patterns in patterns_strategy(),
        subset in prop::collection::vec(any::<bool>(), ROWS),
    ) {
        let df = Arc::new(df);
        let groups = groups(&df, &subset);
        let n = groups.len() * patterns.len();
        let distinct = distinct_keys(&groups, &patterns);

        let by_walk = engine(&df);
        let by_pattern = engine(&df);
        let walked = ask(&by_walk, &groups, &patterns, |_| true);
        let asked = ask(&by_pattern, &groups, &patterns, |_| false);
        prop_assert_eq!(&walked, &asked);
        prop_assert!(walked.iter().any(Option::is_some), "no estimable query");
        for engine in [&by_walk, &by_pattern] {
            let want = (n as u64 - distinct as u64, distinct as u64, distinct, 0);
            prop_assert_eq!(counts(engine.cache_stats_for("linear")), want);
            prop_assert_eq!(counts(engine.cache_stats()), want);
        }

        // Alternate the paths, then swap them: the second round is all
        // hits, whichever path inserted each entry.
        let mixed = engine(&df);
        let first = ask(&mixed, &groups, &patterns, |i| i % 2 == 0);
        let second = ask(&mixed, &groups, &patterns, |i| i % 2 == 1);
        prop_assert_eq!(&first, &walked);
        prop_assert_eq!(&second, &walked);
        let want = (2 * n as u64 - distinct as u64, distinct as u64, distinct, 0);
        prop_assert_eq!(counts(mixed.cache_stats_for("linear")), want);

        // Export, import into a fresh engine, re-walk: zero misses.
        let state = mixed.export_state();
        prop_assert_eq!(state.estimates.len(), distinct);
        let warm = engine(&df);
        warm.import_state(state.clone());
        let rewalked = ask(&warm, &groups, &patterns, |_| true);
        prop_assert_eq!(&rewalked, &walked);
        prop_assert_eq!(counts(warm.cache_stats_for("linear")), (n as u64, 0, distinct, 0));
        let again = warm.export_state();
        prop_assert_eq!(again.estimates.len(), state.estimates.len());
        for (a, b) in again.estimates.iter().zip(&state.estimates) {
            prop_assert_eq!((&a.0, a.1, &a.2), (&b.0, b.1, &b.2));
            prop_assert_eq!(bits(a.3), bits(b.3));
        }
    }
}
