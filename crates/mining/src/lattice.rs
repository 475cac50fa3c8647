//! Positive-parent lattice traversal (FairCap §5.2).
//!
//! The space of intervention patterns forms a lattice where the children of
//! a pattern add one predicate. Following the paper (and CauSumX), a node is
//! materialized and evaluated **only when all of its parents scored
//! positive** — combining positive-effect treatments is likely to stay
//! positive, while expanding negative ones is wasted work. The traversal is
//! generic over the scoring function, so the core crate can plug in
//! fairness-penalized benefit scores.

use crate::apriori::for_each_prefix_pair;
use crate::MiningStats;
use faircap_table::{Mask, Pattern, Predicate};
use std::collections::HashSet;

/// An evaluated lattice node.
#[derive(Debug, Clone)]
pub struct LatticeNode<S> {
    /// The pattern at this node.
    pub pattern: Pattern,
    /// Rows satisfying the pattern (support within the caller's universe).
    pub mask: Mask,
    /// The caller-provided score.
    pub score: S,
}

/// Traverse the lattice over `items` up to `max_len` predicates.
///
/// `evaluate(pattern, mask)` returns `Some(score)` when the node is valid
/// (e.g. the CATE is estimable); `is_positive(score)` gates expansion: a
/// candidate is evaluated only when **all** its length-(k−1) sub-patterns
/// were evaluated and positive. Returns every evaluated node.
///
/// Items must have pairwise-distinct predicates; candidates never combine
/// two predicates on the same attribute.
pub fn positive_lattice<S>(
    items: &[(Predicate, Mask)],
    max_len: usize,
    evaluate: impl FnMut(&Pattern, &Mask) -> Option<S>,
    is_positive: impl Fn(&S) -> bool,
) -> Vec<LatticeNode<S>> {
    positive_lattice_with_stats(items, max_len, evaluate, is_positive).0
}

/// [`positive_lattice`] plus [`MiningStats`] accounting: candidates
/// generated by the prefix join, candidates pruned by the positive-parent
/// rule, and nodes actually handed to `evaluate` (each of which costs a
/// CATE estimation in the FairCap pipeline).
pub fn positive_lattice_with_stats<S>(
    items: &[(Predicate, Mask)],
    max_len: usize,
    mut evaluate: impl FnMut(&Pattern, &Mask) -> Option<S>,
    is_positive: impl Fn(&S) -> bool,
) -> (Vec<LatticeNode<S>>, MiningStats) {
    let mut stats = MiningStats::default();
    let mut out: Vec<LatticeNode<S>> = Vec::new();
    for (pred, mask) in items {
        let pattern = Pattern::new(vec![pred.clone()]);
        stats.candidates += 1;
        stats.evaluated += 1;
        if let Some(score) = evaluate(&pattern, mask) {
            out.push(LatticeNode {
                pattern,
                mask: mask.clone(),
                score,
            });
        }
    }
    // Frontier of positive nodes at the current level, as indices into
    // `out` in pattern order: nodes are stored once, never cloned.
    let mut frontier = positive_sorted(&out, 0, &is_positive);

    let mut level = 1;
    while level < max_len && frontier.len() > 1 {
        // A pair's two parents are the singletons it joins, both in the
        // frontier, so only longer candidates look their parents up.
        let positive_keys: HashSet<&Pattern> = if level > 1 {
            frontier.iter().map(|&i| &out[i].pattern).collect()
        } else {
            HashSet::new()
        };
        let mut fresh: Vec<LatticeNode<S>> = Vec::new();
        // Same prefix-block generation as Apriori: the frontier is sorted,
        // so only contiguous same-prefix pairs can join and every candidate
        // arises from exactly one pair. The candidate's cover is the
        // parents' intersection (conjunctive patterns), reusing the shared
        // prefix mask already folded into both parents.
        for_each_prefix_pair(
            &frontier,
            |&i: &usize| &out[i].pattern,
            |&i, &j| {
                let (a, b) = (&out[i], &out[j]);
                let Some(candidate) = join(&a.pattern, &b.pattern) else {
                    return;
                };
                stats.candidates += 1;
                // All parents must be positive (they must be in the frontier).
                if level > 1
                    && !candidate
                        .parents()
                        .iter()
                        .all(|p| positive_keys.contains(p))
                {
                    stats.pruned_parent += 1;
                    return;
                }
                let mask = &a.mask & &b.mask;
                stats.evaluated += 1;
                if let Some(score) = evaluate(&candidate, &mask) {
                    fresh.push(LatticeNode {
                        pattern: candidate,
                        mask,
                        score,
                    });
                }
            },
        );
        let first = out.len();
        out.append(&mut fresh);
        frontier = positive_sorted(&out, first, &is_positive);
        level += 1;
    }
    (out, stats)
}

/// Indices of the positive nodes of `nodes[first..]`, in pattern order.
fn positive_sorted<S>(
    nodes: &[LatticeNode<S>],
    first: usize,
    is_positive: impl Fn(&S) -> bool,
) -> Vec<usize> {
    let mut positive: Vec<usize> = (first..nodes.len())
        .filter(|&i| is_positive(&nodes[i].score))
        .collect();
    positive.sort_by(|&a, &b| nodes[a].pattern.cmp(&nodes[b].pattern));
    positive
}

/// Same prefix-join as Apriori (shared length-(k−1) prefix, distinct final
/// attributes).
fn join(a: &Pattern, b: &Pattern) -> Option<Pattern> {
    let pa = a.predicates();
    let pb = b.predicates();
    if pa.len() != pb.len() || pa.is_empty() {
        return None;
    }
    let k = pa.len();
    if pa[..k - 1] != pb[..k - 1] {
        return None;
    }
    if pa[k - 1].attr == pb[k - 1].attr {
        return None;
    }
    Some(a.with(pb[k - 1].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faircap_table::Value;

    /// Items a, b, c over 8 rows; scores assigned per pattern via a closure.
    fn items() -> Vec<(Predicate, Mask)> {
        vec![
            (
                Predicate::eq("a", Value::Int(1)),
                Mask::from_indices(8, &[0, 1, 2, 3]),
            ),
            (
                Predicate::eq("b", Value::Int(1)),
                Mask::from_indices(8, &[2, 3, 4, 5]),
            ),
            (
                Predicate::eq("c", Value::Int(1)),
                Mask::from_indices(8, &[3, 5, 6, 7]),
            ),
        ]
    }

    #[test]
    fn all_positive_explores_everything() {
        let nodes = positive_lattice(&items(), 3, |_, _| Some(1.0), |&s| s > 0.0);
        // 3 singletons + 3 pairs + 1 triple.
        assert_eq!(nodes.len(), 7);
        let triple = nodes.iter().find(|n| n.pattern.len() == 3).unwrap();
        // mask of a∧b∧c = {3}
        assert_eq!(triple.mask.to_indices(), vec![3]);
    }

    #[test]
    fn negative_parent_blocks_children() {
        // "b" scores negative → no pair containing b, no triple.
        let nodes = positive_lattice(
            &items(),
            3,
            |p, _| {
                Some(if p.predicates().iter().any(|q| q.attr == "b") {
                    -1.0
                } else {
                    1.0
                })
            },
            |&s| s > 0.0,
        );
        let patterns: Vec<String> = nodes.iter().map(|n| n.pattern.to_string()).collect();
        assert!(patterns.contains(&"a = 1 ∧ c = 1".to_owned()));
        assert!(!patterns
            .iter()
            .any(|p| p.contains("b = 1 ∧") || p.contains("∧ b = 1")));
        // b itself was still evaluated at level 1.
        assert!(patterns.contains(&"b = 1".to_owned()));
        assert_eq!(nodes.len(), 4); // a, b, c, a∧c
    }

    #[test]
    fn unevaluable_nodes_are_skipped() {
        // evaluate returns None for pattern "c" → c is not a candidate parent.
        let nodes = positive_lattice(
            &items(),
            2,
            |p, _| {
                if p.predicates().iter().any(|q| q.attr == "c") && p.len() == 1 {
                    None
                } else {
                    Some(1.0)
                }
            },
            |&s| s > 0.0,
        );
        let patterns: Vec<String> = nodes.iter().map(|n| n.pattern.to_string()).collect();
        assert!(patterns.contains(&"a = 1 ∧ b = 1".to_owned()));
        assert!(!patterns.contains(&"c = 1".to_owned()));
        assert!(!patterns
            .iter()
            .any(|p| p.contains("c = 1") && p.contains('∧')));
    }

    #[test]
    fn masks_are_intersections() {
        let nodes = positive_lattice(&items(), 2, |_, _| Some(1.0), |&s| s > 0.0);
        for n in &nodes {
            if n.pattern.len() == 2 {
                let preds = n.pattern.predicates();
                let m0 = items()
                    .iter()
                    .find(|(p, _)| p == &preds[0])
                    .unwrap()
                    .1
                    .clone();
                let m1 = &items()
                    .iter()
                    .find(|(p, _)| p == &preds[1])
                    .unwrap()
                    .1
                    .clone();
                assert_eq!(n.mask, &m0 & m1, "pattern {}", n.pattern);
            }
        }
    }

    #[test]
    fn negative_pair_prunes_its_triple() {
        // Only b∧c scores negative. a∧b and a∧c share the prefix a and
        // join into a∧b∧c, whose third parent b∧c is not positive: the
        // triple is generated and pruned, never evaluated.
        let mut seen = Vec::new();
        let (nodes, stats) = positive_lattice_with_stats(
            &items(),
            3,
            |p, _| {
                seen.push(p.to_string());
                Some(if p.to_string() == "b = 1 ∧ c = 1" {
                    -1.0
                } else {
                    1.0
                })
            },
            |&s| s > 0.0,
        );
        assert!(nodes.iter().all(|n| n.pattern.len() < 3));
        assert_eq!(nodes.len(), 6);
        assert!(!seen.iter().any(|p| p.matches('∧').count() == 2));
        assert_eq!(
            stats,
            MiningStats {
                candidates: 7,
                pruned_parent: 1,
                pruned_support: 0,
                evaluated: 6,
            }
        );
        // With every pair positive the triple is evaluated.
        let (nodes, stats) =
            positive_lattice_with_stats(&items(), 3, |_, _| Some(1.0), |&s| s > 0.0);
        assert_eq!(nodes.len(), 7);
        assert_eq!(
            (stats.candidates, stats.pruned_parent, stats.evaluated),
            (7, 0, 7)
        );
    }

    #[test]
    fn max_len_one_only_singletons() {
        let nodes = positive_lattice(&items(), 1, |_, _| Some(1.0), |&s| s > 0.0);
        assert_eq!(nodes.len(), 3);
        assert!(nodes.iter().all(|n| n.pattern.len() == 1));
    }

    #[test]
    fn score_carried_through() {
        let nodes = positive_lattice(
            &items(),
            2,
            |_, mask| Some(mask.count() as f64),
            |&s| s > 0.0,
        );
        for n in &nodes {
            assert_eq!(n.score, n.mask.count() as f64);
        }
    }
}
