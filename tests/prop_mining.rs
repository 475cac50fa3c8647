//! Property-based tests for the mining substrate: Apriori's guarantees
//! (support threshold, downward closure, one-item-per-attribute) and the
//! invariants of the level-wise lattice walk under the positive-parent gate
//! hold on random frames.

use faircap::mining::{apriori, coded_lattice, single_attribute_items, AprioriConfig};
use faircap::table::{DataFrame, Mask, Pattern, Predicate};
use proptest::prelude::*;
use std::collections::HashSet;

const LEVELS_A: [&str; 3] = ["a0", "a1", "a2"];
const LEVELS_B: [&str; 2] = ["b0", "b1"];
const LEVELS_C: [&str; 4] = ["c0", "c1", "c2", "c3"];

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    (10usize..150).prop_flat_map(|n| {
        (
            prop::collection::vec(0usize..LEVELS_A.len(), n),
            prop::collection::vec(0usize..LEVELS_B.len(), n),
            prop::collection::vec(0usize..LEVELS_C.len(), n),
        )
            .prop_map(|(a, b, c)| {
                let ca: Vec<&str> = a.iter().map(|&i| LEVELS_A[i]).collect();
                let cb: Vec<&str> = b.iter().map(|&i| LEVELS_B[i]).collect();
                let cc: Vec<&str> = c.iter().map(|&i| LEVELS_C[i]).collect();
                DataFrame::builder()
                    .cat("a", &ca)
                    .cat("b", &cb)
                    .cat("c", &cc)
                    .build()
                    .unwrap()
            })
    })
}

fn attrs() -> Vec<String> {
    vec!["a".into(), "b".into(), "c".into()]
}

/// The pattern a lattice node's item indices name.
fn spell(items: &[(Predicate, Mask)], codes: &[u32]) -> Pattern {
    Pattern::new(codes.iter().map(|&i| items[i as usize].0.clone()).collect())
}

proptest! {
    #[test]
    fn apriori_respects_support_threshold(
        df in frame_strategy(),
        min_support in 0.05f64..0.6,
        max_len in 1usize..4,
    ) {
        let within = Mask::ones(df.n_rows());
        let cfg = AprioriConfig { min_support, max_len, max_values_per_attr: 8 };
        let found = apriori(&df, &attrs(), &within, &cfg).unwrap();
        let min_count = ((min_support * df.n_rows() as f64).ceil() as usize).max(1);
        for f in &found {
            prop_assert!(f.count() >= min_count, "{} has {} < {}", f.pattern, f.count(), min_count);
            prop_assert!(f.pattern.len() <= max_len);
            // support mask is the true coverage
            prop_assert_eq!(&f.support, &f.pattern.coverage(&df).unwrap());
        }
    }

    #[test]
    fn apriori_downward_closure(df in frame_strategy()) {
        let within = Mask::ones(df.n_rows());
        let cfg = AprioriConfig { min_support: 0.1, max_len: 3, max_values_per_attr: 8 };
        let found = apriori(&df, &attrs(), &within, &cfg).unwrap();
        let keys: HashSet<_> = found.iter().map(|f| f.pattern.clone()).collect();
        for f in &found {
            if f.pattern.len() > 1 {
                for parent in f.pattern.parents() {
                    prop_assert!(keys.contains(&parent),
                        "parent {} of frequent {} missing", parent, f.pattern);
                }
            }
        }
    }

    #[test]
    fn apriori_is_complete_for_singletons(df in frame_strategy()) {
        // Every (attr, value) with enough support must appear as a
        // singleton pattern.
        let within = Mask::ones(df.n_rows());
        let cfg = AprioriConfig { min_support: 0.2, max_len: 1, max_values_per_attr: 8 };
        let found = apriori(&df, &attrs(), &within, &cfg).unwrap();
        let found_set: HashSet<String> =
            found.iter().map(|f| f.pattern.to_string()).collect();
        let min_count = ((0.2 * df.n_rows() as f64).ceil() as usize).max(1);
        let items = single_attribute_items(&df, &attrs(), &within, 8).unwrap();
        for (pred, mask) in items {
            if mask.count() >= min_count {
                prop_assert!(found_set.contains(&pred.to_string()),
                    "missing frequent singleton {}", pred);
            }
        }
    }

    #[test]
    fn apriori_support_matches_row_oracle(
        df in frame_strategy(),
        min_support in 0.05f64..0.5,
    ) {
        // The vertical-bitset support (word-fused AND+popcount over parent
        // masks) must agree with a naive per-row predicate scan.
        let within = Mask::ones(df.n_rows());
        let cfg = AprioriConfig { min_support, max_len: 3, max_values_per_attr: 8 };
        let found = apriori(&df, &attrs(), &within, &cfg).unwrap();
        for f in &found {
            for row in 0..df.n_rows() {
                let holds = f.pattern.predicates().iter().all(|p| {
                    df.get(row, &p.attr).unwrap() == p.value
                });
                prop_assert_eq!(
                    f.support.get(row), holds,
                    "pattern {} row {}: mask bit disagrees with the row scan",
                    f.pattern, row
                );
            }
        }
    }

    #[test]
    fn apriori_is_complete_vs_bruteforce(
        df in frame_strategy(),
        min_support in 0.1f64..0.5,
    ) {
        // Every conjunction of ≤3 items over distinct attributes that meets
        // the threshold must be mined — the prefix-join may not drop
        // candidates the naive O(items³) enumeration finds.
        let within = Mask::ones(df.n_rows());
        let cfg = AprioriConfig { min_support, max_len: 3, max_values_per_attr: 8 };
        let found = apriori(&df, &attrs(), &within, &cfg).unwrap();
        let found_set: HashSet<String> = found.iter().map(|f| f.pattern.to_string()).collect();
        let min_count = ((min_support * df.n_rows() as f64).ceil() as usize).max(1);
        let items = single_attribute_items(&df, &attrs(), &within, 8).unwrap();
        for i in 0..items.len() {
            for j in i..items.len() {
                for k in j..items.len() {
                    let picks: Vec<usize> = {
                        let mut v = vec![i, j, k];
                        v.dedup();
                        v
                    };
                    let mut attrs_seen: Vec<&str> =
                        picks.iter().map(|&p| items[p].0.attr.as_str()).collect();
                    attrs_seen.sort_unstable();
                    attrs_seen.dedup();
                    if attrs_seen.len() != picks.len() {
                        continue; // two items on one attribute
                    }
                    let mut mask = items[picks[0]].1.clone();
                    for &p in &picks[1..] {
                        mask = &mask & &items[p].1;
                    }
                    if mask.count() < min_count {
                        continue;
                    }
                    let preds: Vec<_> = picks.iter().map(|&p| items[p].0.clone()).collect();
                    let pattern = Pattern::new(preds);
                    prop_assert!(
                        found_set.contains(&pattern.to_string()),
                        "frequent {} ({} rows ≥ {}) not mined",
                        pattern, mask.count(), min_count
                    );
                }
            }
        }
    }

    #[test]
    fn lattice_nodes_have_positive_ancestry(df in frame_strategy()) {
        // Every evaluated node of length > 1 must have all its parents
        // evaluated and positive, per §5.2's materialization rule.
        let within = Mask::ones(df.n_rows());
        let items = single_attribute_items(&df, &attrs(), &within, 8).unwrap();
        // score = +1 if the pattern covers an even number of rows, −1 odd
        let (nodes, _) = coded_lattice(
            &items,
            3,
            |_, mask| Some(if mask.count() % 2 == 0 { 1.0 } else { -1.0 }),
            |&s| s > 0.0,
        );
        let positive: HashSet<_> = nodes
            .iter()
            .filter(|n| n.score > 0.0)
            .map(|n| spell(&items, &n.items))
            .collect();
        for n in &nodes {
            let pattern = spell(&items, &n.items);
            if pattern.len() > 1 {
                for parent in pattern.parents() {
                    prop_assert!(positive.contains(&parent),
                        "node {} materialized without positive parent {}",
                        pattern, parent);
                }
            }
            // masks are exact coverages
            prop_assert_eq!(&n.mask, &pattern.coverage(&df).unwrap());
        }
    }

    #[test]
    fn lattice_no_duplicate_nodes(df in frame_strategy()) {
        let within = Mask::ones(df.n_rows());
        let items = single_attribute_items(&df, &attrs(), &within, 8).unwrap();
        let (nodes, _) = coded_lattice(&items, 3, |_, _| Some(()), |_| true);
        let mut seen = HashSet::new();
        for n in &nodes {
            let pattern = spell(&items, &n.items);
            // one predicate per attribute
            let attrs = pattern.attributes();
            let mut dedup = attrs.clone();
            dedup.dedup();
            prop_assert_eq!(attrs.len(), dedup.len());
            prop_assert!(seen.insert(pattern.clone()), "duplicate {}", pattern);
        }
    }
}
